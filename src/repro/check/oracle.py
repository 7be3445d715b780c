"""The differential replay kernel behind every ``repro`` correctness check.

Odin's correctness claim is that an incremental rebuild is semantically
identical to recompiling the world (§3.3, Algorithm 2).  Every check in
this package tests that claim with the same four parts:

* a **schedule** (:mod:`repro.check.schedules`) — seeded probe steps,
  optionally with a fault plan;
* one or more **subjects** (:mod:`repro.check.subjects`) — live builds
  that execute corpus inputs, apply probe ops by id and may fire faults;
* **one op resolver** (:func:`resolve`) — the step's probe ids are
  picked once, on the lead subject, and applied by id everywhere;
* **one comparator** (:func:`compare`) — fragment set, object bytes,
  linked image and behaviour (exit code, stdout, trap, cycles and
  coverage over the seed corpus) of each subject against a reference:
  a from-scratch build (:class:`DifferentialOracle`), the full-tier
  subject, or the uninstrumented baseline;

and one report family (:class:`Step`, :class:`Outcome`, :class:`Report`).
:class:`Replay` is the loop that ties them together; each CLI check is a
configuration of it.  Any divergence is reported with the schedule, step
and layer that exposed it, which is what makes the report actionable.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
    Sequence, Tuple,
)

from repro.check.schedules import (
    STEP_DISABLE,
    STEP_ENABLE,
    STEP_PRUNE,
    ProbeSchedule,
    pick_targets,
)
from repro.core.engine import Odin
from repro.fuzz.executor import PRESERVED, run_input
from repro.instrument.coverage import CoverageRuntime, OdinCov
from repro.programs.registry import TargetProgram
from repro.utils.rng import DeterministicRNG
from repro.vm.interpreter import VM

# exit code, stdout, trap, cycles, covered probe ids
Behaviour = Tuple[int, bytes, Optional[str], int, FrozenSet[int]]
BEHAVIOUR_FIELDS = ("exit_code", "stdout", "trap", "cycles", "coverage")
_NO_EXECUTABLE: Behaviour = (-1, b"", "no executable", 0, frozenset())


def block_probes(engine: Odin) -> OdinCov:
    """OdinCov with a probe on every basic block (not yet built).  Probe
    ids follow module order, so they align across fresh engines."""
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    return tool


def corpus(program: TargetProgram, seed: int, max_inputs: int) -> List[bytes]:
    inputs = program.seeds(seed)[:max_inputs]
    if not inputs:
        raise ValueError(f"program {program.name!r} has an empty seed corpus")
    return inputs


def behaviour(make_vm: Callable[[CoverageRuntime], VM], data: bytes) -> Behaviour:
    """Run one input on a fresh VM observed by a fresh coverage runtime."""
    runtime = CoverageRuntime()
    result = run_input(make_vm(runtime), data)
    covered = frozenset(runtime.covered_ids())
    return (result.exit_code, result.stdout, result.trap, result.cycles, covered)


class Side(NamedTuple):
    """Everything the comparator looks at in one build."""

    label: str
    objects: Dict[int, str]             # fragment id -> object fingerprint
    image: Optional[str]                # linked image fingerprint
    run: Callable[[bytes], Behaviour]


def engine_side(label: str, engine: Odin) -> Side:
    exe = engine.executable

    def run(data: bytes) -> Behaviour:
        if exe is None:
            return _NO_EXECUTABLE
        return behaviour(lambda rt: VM(exe, probe_runtime=rt), data)

    return Side(label, engine.object_fingerprints(),
                engine.executable_fingerprint(), run)


def compare(sides: Sequence[Side], ref: Side, inputs: Sequence[bytes]) -> List[str]:
    """Diff each side against *ref*: fragment set, objects, image, behaviour."""
    mismatches: List[str] = []
    expected = [ref.run(data) for data in inputs]
    for side in sides:
        def differ(what: str, a, b) -> None:
            mismatches.append(f"{what} ({side.label} {a} != {ref.label} {b})")

        if set(side.objects) != set(ref.objects):
            differ("linked fragment set differs",
                   sorted(side.objects), sorted(ref.objects))
        for fid in sorted(set(side.objects) & set(ref.objects)):
            if side.objects[fid] != ref.objects[fid]:
                differ(f"fragment #{fid} object bytes differ",
                       side.objects[fid][:12], ref.objects[fid][:12])
        if side.image != ref.image:
            differ("linked image differs", str(side.image)[:12], str(ref.image)[:12])
        for data, want in zip(inputs, expected):
            for name, a, b in zip(BEHAVIOUR_FIELDS, side.run(data), want):
                if a != b:
                    differ(f"input {data[:16]!r}: {name} differs", repr(a), repr(b))
    return mismatches


class DifferentialOracle:
    """The from-scratch reference: rebuild a probe state, diff every layer."""

    def __init__(self, program: TargetProgram, *, max_inputs: int = 4):
        self.program = program
        self.inputs = corpus(program, 0, max_inputs)

    def compare_to_reference(self, engine: Odin,
                             label: str = "incremental") -> List[str]:
        """Build the same probe state from scratch and diff all layers."""
        reference = self._build_reference(engine)
        if reference is None:
            return ["probe id universe diverged between engines"]
        return compare([engine_side(label, engine)],
                       engine_side("from-scratch", reference), self.inputs)

    def _build_reference(self, incremental: Odin) -> Optional[Odin]:
        """Fresh engine + single full build reproducing the probe state:
        the fresh probes align with the incremental engine's by id, so
        remove/disable until the states match."""
        engine = Odin(self.program.compile(), preserve=PRESERVED)
        tool = block_probes(engine)
        state = {p.id: p.enabled for p in incremental.manager}
        if not set(state) <= set(tool.probes):
            return None
        for pid in sorted(tool.probes):
            probe = tool.probes[pid]
            if pid not in state:
                engine.manager.remove(probe)
                tool.probes.pop(pid)
            elif not state[pid]:
                engine.manager.disable(probe)
        tool.build()
        return engine


# -- report family -------------------------------------------------------------


@dataclass
class Step:
    """One replayed step: ops applied and, if compared, what diverged."""

    index: int
    kind: str
    applied: int                 # probe ops applied (0 = no-op step)
    lane: int = 0                # tenant index for multi-lane schedules
    compared: bool = False
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class Outcome:
    """One replayed schedule: steps, subject counters, final verdict."""

    schedule: ProbeSchedule
    steps: List[Step] = field(default_factory=list)
    counters: Dict[str, Any] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (self.error is None and not self.mismatches
                and all(step.ok for step in self.steps))

    @property
    def comparisons(self) -> int:
        return sum(1 for step in self.steps if step.compared)

    def count(self, key: str, sub: Optional[str] = None) -> None:
        """Bump ``counters[key]``, or ``counters[key][sub]``, by one."""
        if sub is None:
            self.counters[key] = self.counters.get(key, 0) + 1
        else:
            table = self.counters.setdefault(key, {})
            table[sub] = table.get(sub, 0) + 1

    def failures(self, title: str) -> List[str]:
        where = f"{title} #{self.schedule.schedule_id}"
        out = [f"{where}: {self.error}"] if self.error is not None else []
        out += [f"{where} step {step.index} ({step.kind}): {m}"
                for step in self.steps for m in step.mismatches]
        return out + [f"{where}: {m}" for m in self.mismatches]

    def to_dict(self) -> dict:
        return {
            "schedule_id": self.schedule.schedule_id,
            "seed": self.schedule.seed,
            "faults": [(f.step, f.kind) for f in self.schedule.faults],
            **self.counters,
            "mismatches": [m for step in self.steps for m in step.mismatches]
            + self.mismatches,
            "error": self.error,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class Layout:
    """How a configuration's report reads on the console."""

    title: str      # schedule prefix in failure lines, e.g. "chaos"
    tag: str        # failure line tag, e.g. "MISMATCH"
    failed: str     # status noun when not ok, e.g. "MISMATCHES"
    summary: Callable[["Report"], str]
    line: Optional[Callable[[Outcome], str]] = None   # one per outcome


@dataclass
class Report:
    """Everything one configuration learned: one outcome per schedule."""

    name: str
    layout: Layout
    meta: Dict[str, Any] = field(default_factory=dict)
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def comparisons(self) -> int:
        return sum(outcome.comparisons for outcome in self.outcomes)

    @property
    def failures(self) -> List[str]:
        return [f for o in self.outcomes for f in o.failures(self.layout.title)]

    @property
    def status(self) -> str:
        return "ok" if self.ok else f"{len(self.failures)} {self.layout.failed}"

    def total(self, key: str):
        """A counter summed over outcomes (mapping counters merge)."""
        values = [o.counters[key] for o in self.outcomes if key in o.counters]
        if values and isinstance(values[0], dict):
            return dict(sum((Counter(v) for v in values), Counter()))
        return sum(values)

    @property
    def faults_injected(self) -> int:
        return sum(sum(o.counters.get("injected", {}).values())
                   for o in self.outcomes)

    def summary(self) -> str:
        return self.layout.summary(self)

    def lines(self) -> List[str]:
        out = [self.summary()]
        if self.layout.line is not None:
            out += [f"  {self.layout.line(o)}" + ("" if o.ok else "  FAILED")
                    for o in self.outcomes]
        return out + [f"  {self.layout.tag} {f}" for f in self.failures]

    def to_dict(self) -> dict:
        return {
            **self.meta,
            "ok": self.ok,
            "faults_injected": self.faults_injected,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# -- subjects, resolver and the replay loop -------------------------------------


class Subject:
    """One live build a schedule replays on (see check/subjects.py).

    A subject has one *lane* per independent probe state (one, or one
    per cluster tenant).  The defaults describe a single-lane subject
    without faults; the resolver needs ``engine`` and ``tool``.
    """

    lanes = 1

    def __init__(self, outcome: Outcome, label: str):
        self.outcome = outcome
        self.label = label

    def engine(self, lane: int) -> Odin:
        raise NotImplementedError

    def tool(self, lane: int) -> OdinCov:
        raise NotImplementedError

    def side(self, lane: int) -> Side:
        return engine_side(self.label, self.engine(lane))

    def execute(self, lane: int, data: bytes) -> None:
        raise NotImplementedError

    def apply(self, lane: int, kind: str, ids: List[int]) -> None:
        raise NotImplementedError

    def fire(self, event, index: int) -> None:
        raise ValueError(f"{type(self).__name__} cannot inject {event.kind!r}")

    def tick(self, index: int) -> None:
        """Called after every step (round) of the schedule."""

    def verdict(self, check: Callable[[int], List[str]]) -> None:
        """End of schedule: compare every lane against the reference."""
        for lane in range(self.lanes):
            self.outcome.mismatches.extend(check(lane))

    def close(self) -> None:
        pass


def resolve(subject: Subject, lane: int, step, rng: DeterministicRNG) -> List[int]:
    """Pick the step's probe ids, once, on the lead subject.

    Every subject then applies the same ids, so their probe states stay
    aligned by construction — a behaviour bug shows up as a comparison
    mismatch, never as schedule drift.  A prune step is a removal of
    every covered live probe.
    """
    manager = subject.engine(lane).manager
    if step.kind == STEP_PRUNE:
        live = {p.id for p in manager}
        covered = subject.tool(lane).runtime.covered_ids()
        return sorted(pid for pid in covered if pid in live)
    if step.kind == STEP_DISABLE:
        eligible = [p for p in manager if p.enabled]
    elif step.kind == STEP_ENABLE:
        eligible = [p for p in manager if not p.enabled]
    else:  # STEP_REMOVE
        eligible = list(manager)
    eligible.sort(key=lambda p: p.id)
    return [p.id for p in pick_targets(rng, eligible, step.count)]


# Compares one lane of the replayed subjects against the reference.
Reference = Callable[[List[Subject], int], List[str]]


@dataclass
class Replay:
    """The replay kernel, configured: subjects, reference and report shape.

    ``subjects`` builds the live subjects for one schedule (lead first);
    ``reference`` diffs them; with ``every_step`` the diff runs after
    every effective step, otherwise once, in the lead's verdict, after
    the whole schedule (faults make intermediate states incomparable).
    """

    name: str
    subjects: Callable[[ProbeSchedule, Outcome], Iterable[Subject]]
    reference: Reference
    layout: Layout
    inputs: Sequence[bytes] = ()
    every_step: bool = True
    counters: Callable[[], Dict[str, Any]] = dict
    meta: Dict[str, Any] = field(default_factory=dict)

    def run(self, schedules: List[ProbeSchedule], **meta) -> Report:
        report = Report(self.name, self.layout, {**self.meta, **meta})
        report.outcomes = [self.replay(schedule) for schedule in schedules]
        return report

    def replay(self, schedule: ProbeSchedule) -> Outcome:
        outcome = Outcome(schedule, counters=self.counters())
        subjects: List[Subject] = []
        try:
            subjects.extend(self.subjects(schedule, outcome))
            self._replay(schedule, outcome, subjects)
        except Exception as error:  # surface, do not crash the sweep
            outcome.error = f"{type(error).__name__}: {error}"
        finally:
            for subject in subjects:
                subject.close()
        return outcome

    def _replay(self, schedule, outcome, subjects) -> None:
        lead = subjects[0]
        rngs = [DeterministicRNG(seed) for seed in schedule.pick_seeds()]
        cursor = 0
        for index in range(schedule.rounds):
            for event in schedule.faults:
                if event.step == index:
                    lead.fire(event, index)
            for lane, lane_schedule in enumerate(schedule.lanes):
                if index >= len(lane_schedule.steps):
                    continue
                step = lane_schedule.steps[index]
                for _ in range(step.inputs if self.inputs else 0):
                    data = self.inputs[cursor % len(self.inputs)]
                    cursor += 1
                    for subject in subjects:
                        subject.execute(lane, data)
                ids = resolve(lead, lane, step, rngs[lane])
                record = Step(index, step.kind, len(ids), lane)
                outcome.steps.append(record)
                if not ids:
                    continue
                for subject in subjects:
                    subject.apply(lane, step.kind, ids)
                if self.every_step:
                    record.compared = True
                    record.mismatches = self.reference(subjects, lane)
            lead.tick(index)
        if not self.every_step:
            lead.verdict(lambda lane: self.reference(subjects, lane))

"""The benchmark's three closed-loop workloads.

Each workload has one single-threaded client that waits for every
operation before issuing the next (closed loop), and takes everything it
does from ``--seed``:

* ``fuzz-campaign`` -- seeded :class:`Fuzzer` campaigns with OdinCov
  pruning on plain engines over libjpeg, harfbuzz and json.  One
  operation is a round of mutated-input executions on every target; a
  round in which a fuzzer waited on a prune rebuild is a ``PRUNE`` one.
* ``probe-churn`` -- a seeded stream of probe toggles and removals on
  plain engines (no object, memo or link cache, no executions) over
  json, lcms, libxml2 and harfbuzz.  Every edit waits for
  ``Odin.rebuild_if_needed``.
* ``tenants-shared`` -- 4 tenants x (json, lcms, libjpeg) on a
  2-shard :class:`CompileCluster` with serial workers.  Every tenant
  replays the same seeded edit stream per program, one step behind the
  previous tenant, so later tenants' removals come from the shared
  content cache.

A workload exposes ``setup`` (timed: MiniC source to the first runnable
instrumented executable of every program), ``start(seed)``, ``step(i)``
(one operation), ``snapshot()`` (deterministic counters after the fixed
prefix of ``prefix_steps`` operations), ``epilogue()`` (the untimed
correctness gate) and ``teardown()``.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.check.oracle import DifferentialOracle
from repro.cluster import CompileCluster, TenantSpec
from repro.core import Odin
from repro.fuzz import Fuzzer, OdinCovExecutor
from repro.fuzz.executor import ENTRY
from repro.instrument import OdinCov
from repro.instrument.coverage import CoverageRuntime
from repro.programs.registry import get_program
from repro.toolchain import build_module
from repro.vm.interpreter import VM

PRESERVED = ("main", "run_input")
EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected_outputs.json")

TOGGLE = "toggle"
REMOVE = "remove"
EXEC = "exec"
PRUNE = "prune"  # a fuzzing round during which the fuzzer waited on a prune rebuild


@dataclass
class Op:
    """One completed client operation."""

    kind: str
    program: str
    ms: float
    tier: str = ""
    executions: int = 0


def build_instrumented(name: str) -> OdinCov:
    """MiniC source -> OdinCov on a plain engine, every block probed, built."""
    engine = Odin(get_program(name).compile(), preserve=PRESERVED)
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    tool.build()
    return tool


def run_input(executable, data: bytes, runtime=None):
    """Execute one input on a fresh VM."""
    vm = VM(executable, probe_runtime=runtime)
    addr = vm.alloc(max(len(data), 1) + 1)
    vm.write_bytes(addr, data)
    return vm.run(ENTRY, (addr, len(data)), reset=False)


def behaviour(result) -> Tuple[int, str, Optional[str]]:
    return (result.exit_code, result.stdout.decode("latin-1"), result.trap)


def check_expected(program: str, executable) -> List[str]:
    """Seed-corpus behaviour of *executable* against the committed file."""
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)[program]
    mismatches = []
    for case in expected:
        data = bytes.fromhex(case["input"])
        got = behaviour(run_input(executable, data, CoverageRuntime()))
        want = (case["exit_code"], case["stdout"], case["trap"])
        if got != want:
            mismatches.append(
                f"{program}: seed {case['input'][:16]}: {got!r} != expected {want!r}"
            )
    return mismatches


class _Workload:
    name = ""
    programs: Tuple[str, ...] = ()
    # Both are class constants or set by ``setup`` (edit streams size
    # them from the programs' probe counts).
    prefix_steps = 0
    # Operations per on/off unit of the traced run's alternation: a unit
    # must hold the same mix of operations every time.
    trace_unit = 1

    def __init__(self, tracer=None):
        self.tracer = tracer

    def on(self, program: str):
        """Attribute traced work to *program* (no-op when untraced)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.working_on(program)

    def detail(self) -> Dict[str, object]:
        """Workload-specific figures for the report line."""
        return {}

    def shared_cache(self) -> Dict[str, float]:
        """Shared-cache figures; only the cluster workload has a shared cache."""
        return {}

    def teardown(self) -> None:
        """Drop the set-up's state so the next set-up starts cold."""
        self.tools = {}


def block_weights(engines: Dict[str, Odin]) -> Dict[str, int]:
    """Edits per block for each program: one per ``PROBES_PER_EDIT``
    probes it registered at set-up (at least one), so a program's share
    of the edits follows its share of the probes."""
    return {
        name: max(1, round(len(engine.manager) / _EditStream.PROBES_PER_EDIT))
        for name, engine in engines.items()
    }


class _EditStream:
    """Seeded toggle/removal stream over the live probe ids of each program.

    The mix is synthetic, not measured from any client the engine serves:
    each edit is as likely to be a toggle as a removal, and each program
    gets edits in proportion to its probe count, as if every edit picked
    a random probe.  Edits come in blocks that hold each program
    ``weight`` times per kind (see :func:`block_weights`), in seeded
    order, each on a seeded random live probe.  Fixed block counts keep
    the program and kind mix of every run the same whatever its seed or
    length.  A removal takes out one probe per rebuild, the unit of the
    paper's recompile-latency figures; OdinCov's prune removes many at
    once (the ``fuzz-campaign`` workload covers that).
    """

    PROBES_PER_EDIT = 25
    TOGGLES_PER_REMOVAL = 1
    MIN_LIVE = 8

    def __init__(self, seed: int, weights: Dict[str, int], engines: Dict[str, Odin]):
        self.rng = random.Random(seed)
        self.weights = weights
        self.live = {name: sorted(p.id for p in engine.manager) for name, engine in engines.items()}
        self.edits: List[Tuple[str, str, int]] = []
        self._block: List[Tuple[str, str]] = []

    def __getitem__(self, index: int) -> Tuple[str, str, int]:
        while len(self.edits) <= index:
            self.edits.append(self._next())
        return self.edits[index]

    def _next(self) -> Tuple[str, str, int]:
        if not self._block:
            for program, weight in self.weights.items():
                self._block += [(program, REMOVE)] * weight
                self._block += [(program, TOGGLE)] * (weight * self.TOGGLES_PER_REMOVAL)
            self.rng.shuffle(self._block)
        program, kind = self._block.pop()
        live = self.live[program]
        probe_id = self.rng.choice(live)
        if kind == REMOVE and len(live) > self.MIN_LIVE:
            live.remove(probe_id)
            return program, REMOVE, probe_id
        return program, TOGGLE, probe_id


class FuzzCampaign(_Workload):
    """Round-robin OdinCov fuzzing campaigns with prune rebuilds.

    Each program is fuzzed by ``INSTANCES`` fuzzer instances (own corpus
    and RNG) that share one instrumented target and its prune cadence,
    like parallel fuzzer instances sharing a coverage map.  One campaign
    trajectory's cost swings several-fold with its seed (libjpeg's
    execution cost depends on the header fields mutation happens to
    produce); averaging over instances keeps a run's work steady across
    seeds.  One operation is a round: ``CHUNK`` executions on each
    target in turn.  Single executions are no good as the timed unit:
    their latency is one mode per program (json ~0.6 ms, harfbuzz ~10 ms,
    libjpeg ~20 ms), so their median sits between modes.  A round in
    which a fuzzer waited on a prune rebuild is a ``PRUNE`` operation:
    there are only a handful per run, too few to place a 90th percentile
    among them, so they count in throughput but not in round latency.
    """

    name = "fuzz-campaign"
    programs = ("libjpeg", "harfbuzz", "json")
    INSTANCES = 8
    CHUNK = 4             # executions per target per round
    PRUNE_INTERVAL = 100  # executions of a target between prune rebuilds
    prefix_steps = 24     # rounds: 96 executions per target

    def setup(self) -> None:
        self.tools = {}
        for name in self.programs:
            with self.on(name):
                self.tools[name] = build_instrumented(name)

    def start(self, seed: int) -> None:
        self.fuzzers = {}
        self.executors = {}
        self.triaged = {}
        self.done = {}
        self.exec_ms: Dict[str, List[float]] = {}
        for index, name in enumerate(self.programs):
            executor = OdinCovExecutor(self.tools[name])
            fuzzers = [
                Fuzzer(
                    executor,
                    get_program(name).seeds(),
                    seed=seed * 1000 + index * 100 + instance,
                    prune_interval=self.PRUNE_INTERVAL,
                )
                for instance in range(self.INSTANCES)
            ]
            with self.on(name):
                for fuzzer in fuzzers:
                    fuzzer.run(0)  # seed triage, not part of the campaign
            self.fuzzers[name] = fuzzers
            self.executors[name] = executor
            self.triaged[name] = (executor.executions, executor.total_cycles)
            self.done[name] = 0
            self.exec_ms[name] = []

    def coverage(self, name: str) -> int:
        return len(set().union(*(f.corpus.global_coverage for f in self.fuzzers[name])))

    def step(self, index: int) -> Op:
        round_ms = 0.0
        rebuilds = self.prune_rebuilds()
        for name in self.programs:
            fuzzers = self.fuzzers[name]
            with self.on(name):
                for _ in range(self.CHUNK):
                    fuzzer = fuzzers[self.done[name] % self.INSTANCES]
                    start = time.perf_counter()
                    fuzzer.run(1)
                    ms = (time.perf_counter() - start) * 1000.0
                    self.done[name] += 1
                    self.exec_ms[name].append(ms)
                    round_ms += ms
        kind = PRUNE if self.prune_rebuilds() > rebuilds else EXEC
        return Op(kind, "round", round_ms, executions=self.CHUNK * len(self.programs))

    def prune_rebuilds(self) -> int:
        return sum(f.stats.rebuilds for fuzzers in self.fuzzers.values() for f in fuzzers)

    def campaign(self, name: str) -> Dict[str, float]:
        executor = self.executors[name]
        executions = executor.executions - self.triaged[name][0]
        return {
            "executions": executions,
            "cycles": executor.total_cycles - self.triaged[name][1],
            "edges_covered": self.coverage(name),
        }

    def snapshot(self) -> Dict[str, float]:
        campaigns = [self.campaign(name) for name in self.programs]
        return {
            "cycles_per_exec": sum(c["cycles"] for c in campaigns)
            / sum(c["executions"] for c in campaigns),
            "edges_covered": sum(c["edges_covered"] for c in campaigns),
        }

    def detail(self) -> Dict[str, object]:
        out = {}
        for name, fuzzers in self.fuzzers.items():
            campaign = self.campaign(name)
            out[name] = {
                "executions": campaign["executions"],
                "cycles_per_exec": campaign["cycles"] / max(campaign["executions"], 1),
                "edges_covered": campaign["edges_covered"],
                "exec_p50_ms": statistics.median(self.exec_ms[name]),
                "prunes": sum(f.stats.prunes for f in fuzzers),
                "prune_rebuilds": sum(f.stats.rebuilds for f in fuzzers),
                "corpus": sum(len(f.corpus) for f in fuzzers),
            }
        return {"campaigns": out}

    def epilogue(self) -> List[str]:
        """Seed corpora against the expected file; the final corpora on the
        pruned executable against an uninstrumented -O0 build."""
        mismatches = []
        for name, fuzzers in self.fuzzers.items():
            pruned = self.tools[name].engine.executable
            mismatches += check_expected(name, pruned)
            plain = build_module(get_program(name).compile(), opt_level=0).executable
            inputs = sorted({e.data for f in fuzzers for e in f.corpus.entries})
            for data in inputs:
                got = behaviour(run_input(pruned, data, CoverageRuntime()))
                want = behaviour(run_input(plain, data))
                if got != want:
                    mismatches.append(
                        f"{name}: corpus input {data[:16]!r}: "
                        f"pruned {got!r} != -O0 {want!r}"
                    )
        return mismatches


class ProbeChurn(_Workload):
    """Seeded probe toggles and removals on plain engines."""

    name = "probe-churn"
    programs = ("json", "lcms", "libxml2", "harfbuzz")

    def setup(self) -> None:
        self.tools = {}
        for name in self.programs:
            with self.on(name):
                self.tools[name] = build_instrumented(name)
        self.weights = block_weights({name: tool.engine for name, tool in self.tools.items()})
        # One block of edits: the fixed prefix and the traced run's unit.
        self.prefix_steps = self.trace_unit = (
            (1 + _EditStream.TOGGLES_PER_REMOVAL) * sum(self.weights.values())
        )

    def start(self, seed: int) -> None:
        self.stream = _EditStream(
            seed, self.weights, {name: tool.engine for name, tool in self.tools.items()}
        )
        self.prefix_sim: List[float] = []

    def step(self, index: int) -> Op:
        program, kind, probe_id = self.stream[index]
        engine = self.tools[program].engine
        manager = engine.manager
        with self.on(program):
            start = time.perf_counter()
            probe = manager.get_probe(probe_id)
            if kind == REMOVE:
                manager.remove(probe)
                self.tools[program].probes.pop(probe_id, None)
            elif probe.enabled:
                manager.disable(probe)
            else:
                manager.enable(probe)
            report = engine.rebuild_if_needed()
            ms = (time.perf_counter() - start) * 1000.0
        if kind == REMOVE and index < self.prefix_steps:
            self.prefix_sim.append(report.wall_ms)
        return Op(kind, program, ms, report.tier)

    def snapshot(self) -> Dict[str, float]:
        return {"sim_rebuild_ms": statistics.fmean(self.prefix_sim)}

    def epilogue(self) -> List[str]:
        mismatches = []
        for name, tool in self.tools.items():
            program = get_program(name)
            mismatches += [
                f"{name}: {m}"
                for m in DifferentialOracle(program).compare_to_reference(tool.engine)
            ]
            mismatches += check_expected(name, tool.engine.executable)
        return mismatches


def _cluster_instrument(engine: Odin) -> OdinCov:
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    return tool


class TenantsShared(_Workload):
    """Four tenants replaying one edit stream through a 2-shard cluster."""

    name = "tenants-shared"
    programs = ("json", "lcms", "libjpeg")
    tenants = ("tenant-0", "tenant-1", "tenant-2", "tenant-3")

    def setup(self) -> None:
        cluster = CompileCluster(
            shards=2, workers=1, worker_mode="serial",
            # Equal weights served round-robin hold exactly a quarter of
            # the window each, so nothing is shed.
            quota_window=256, reply_timeout_s=120.0,
        )
        self.cluster = cluster.start()
        for tenant in self.tenants:
            cluster.register_tenant(TenantSpec(tenant))
        for tenant in self.tenants:
            for name in self.programs:
                with self.on(name):
                    cluster.register_target(
                        tenant, name, get_program(name).compile(),
                        instrument=_cluster_instrument, preserve=PRESERVED,
                    )
        self.weights = block_weights(
            {name: cluster.engine(self.tenants[0], name) for name in self.programs}
        )
        # One block of edits, replayed by every tenant: the fixed prefix
        # and the traced run's unit.
        self.prefix_steps = self.trace_unit = len(self.tenants) * (
            (1 + _EditStream.TOGGLES_PER_REMOVAL) * sum(self.weights.values())
        )

    def start(self, seed: int) -> None:
        first = self.tenants[0]
        self.stream = _EditStream(
            seed, self.weights,
            {name: self.cluster.engine(first, name) for name in self.programs},
        )
        self.clients = {
            (tenant, name): self.cluster.client(tenant, name, "bench")
            for tenant in self.tenants
            for name in self.programs
        }
        self.prefix_sim: List[float] = []
        self.cache0 = (self.cluster.cache.hits, self.cluster.cache.misses)
        memo = self.cluster.pass_memo
        self.memo0 = (memo.hits, memo.misses)

    def step(self, index: int) -> Op:
        tenant = self.tenants[index % len(self.tenants)]
        program, kind, probe_id = self.stream[index // len(self.tenants)]
        client = self.clients[(tenant, program)]
        if kind == REMOVE:
            ops = client.remove(probe_id)
        elif self.cluster.engine(tenant, program).manager.get_probe(probe_id).enabled:
            ops = client.disable(probe_id)
        else:
            ops = client.enable(probe_id)
        with self.on(program):
            start = time.perf_counter()
            reply = client.rebuild(ops)
            ms = (time.perf_counter() - start) * 1000.0
        report = reply.report
        if kind == REMOVE and index < self.prefix_steps:
            self.prefix_sim.append(report.wall_ms)
        return Op(kind, program, ms, report.tier)

    def snapshot(self) -> Dict[str, float]:
        return {"sim_rebuild_ms": statistics.fmean(self.prefix_sim)}

    def shared_cache(self) -> Dict[str, float]:
        cache, memo = self.cluster.cache, self.cluster.pass_memo

        def ratio(hits, misses, base):
            lookups = hits - base[0] + misses - base[1]
            return (hits - base[0]) / lookups if lookups else 0.0

        return {
            "service.cache.hit_ratio": ratio(cache.hits, cache.misses, self.cache0),
            "opt.memo.hit_ratio": ratio(memo.hits, memo.misses, self.memo0),
            "cluster.cross_tenant_hits": float(
                self.cluster.metrics.counter("cross_tenant_cache_hits")
            ),
        }

    def detail(self) -> Dict[str, object]:
        return {"cache": self.shared_cache()}

    def epilogue(self) -> List[str]:
        """Differential check of every distinct final state, per program."""
        mismatches = []
        for name in self.programs:
            oracle = DifferentialOracle(get_program(name))
            checked = set()
            for tenant in self.tenants:
                engine = self.cluster.engine(tenant, name)
                state = (
                    engine.executable_fingerprint(),
                    tuple(sorted(engine.object_fingerprints().items())),
                    tuple(sorted((p.id, p.enabled) for p in engine.manager)),
                )
                if state in checked:
                    continue
                checked.add(state)
                mismatches += [
                    f"{tenant}:{name}: {m}"
                    for m in oracle.compare_to_reference(engine)
                ]
                mismatches += check_expected(name, engine.executable)
        return mismatches

    def teardown(self) -> None:
        if getattr(self, "cluster", None) is not None:
            self.cluster.close()
            self.cluster = None


WORKLOADS = {w.name: w for w in (FuzzCampaign, ProbeChurn, TenantsShared)}

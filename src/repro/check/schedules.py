"""Deterministic probe-state schedules, with optional seeded fault plans.

A schedule is a short random program over the probe-state API: run a few
corpus inputs, then disable / enable / remove a handful of probes or run
an Untracer-style prune — the exact operation mix a fuzzing campaign
exercises (§4's dynamic add/remove/change, §2.1's pruning).  Schedules
are pure data: the concrete probes touched are resolved at replay time
from the schedule's own seed, so the same schedule replays identically
on every subject the replay kernel drives.

A chaos schedule is the same :class:`ProbeSchedule` with a fault plan
(``faults``) attached; a cluster chaos schedule additionally carries one
probe schedule per tenant (``tenants``) and its steps run in rounds —
in round *r* every tenant applies its own step *r*.

Everything is driven by :class:`repro.utils.rng.DeterministicRNG`; every
generator here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, TypeVar

from repro.utils.rng import DeterministicRNG

T = TypeVar("T")

# Step kinds understood by the replay kernel.
STEP_DISABLE = "disable"
STEP_ENABLE = "enable"
STEP_REMOVE = "remove"
STEP_PRUNE = "prune"
STEP_KINDS = (STEP_DISABLE, STEP_ENABLE, STEP_REMOVE, STEP_PRUNE)

# Generation weights: toggles dominate (fuzzers flip probe sets far more
# often than they prune), removal and pruning stay common enough that
# every multi-step schedule shrinks the probe population.
_KIND_WEIGHTS = (
    (STEP_DISABLE, 30),
    (STEP_ENABLE, 25),
    (STEP_REMOVE, 25),
    (STEP_PRUNE, 20),
)

# Service faults, fired before a probe step (see check/subjects.py).
FAULT_WORKER_CRASH = "worker-crash"
FAULT_WORKER_HANG = "worker-hang"
FAULT_CACHE_CORRUPT = "cache-corrupt"
FAULT_DISPATCHER_RESTART = "dispatcher-restart"
FAULT_DEADLINE_EXPIRE = "deadline-expire"
# Cluster faults, fired before a replay round.
FAULT_SHARD_KILL = "shard-kill"
FAULT_SHARD_HANG = "shard-hang"
FAULT_ROUTER_PARTITION = "router-partition"

# Worker faults dominate (they exercise the whole restart/retry/degrade
# ladder); the rest stay common enough that every few schedules cover
# each kind.
_SERVICE_FAULT_WEIGHTS = (
    (FAULT_WORKER_CRASH, 30),
    (FAULT_WORKER_HANG, 20),
    (FAULT_CACHE_CORRUPT, 20),
    (FAULT_DISPATCHER_RESTART, 15),
    (FAULT_DEADLINE_EXPIRE, 15),
)
_CLUSTER_FAULT_WEIGHTS = (
    (FAULT_SHARD_KILL, 40),
    (FAULT_SHARD_HANG, 30),
    (FAULT_ROUTER_PARTITION, 30),
)
SERVICE_FAULT_KINDS = tuple(kind for kind, _ in _SERVICE_FAULT_WEIGHTS)
CLUSTER_FAULT_KINDS = tuple(kind for kind, _ in _CLUSTER_FAULT_WEIGHTS)
FAULT_KINDS = SERVICE_FAULT_KINDS + CLUSTER_FAULT_KINDS


def weighted_pick(rng: DeterministicRNG, table: Sequence[Tuple[T, int]]) -> T:
    """One roll against ``(item, weight)`` pairs: ``randint(1, total)``,
    then subtract weights in order until the roll is used up."""
    roll = rng.randint(1, sum(weight for _, weight in table))
    for item, weight in table:
        roll -= weight
        if roll <= 0:
            return item
    return table[-1][0]  # pragma: no cover - unreachable


@dataclass(frozen=True)
class ScheduleStep:
    """One probe-state mutation, preceded by a burst of executions."""

    kind: str
    count: int = 1   # probes to touch (disable/enable/remove)
    inputs: int = 2  # corpus inputs executed before the mutation

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.inputs < 0:
            raise ValueError("inputs must be >= 0")

    def describe(self) -> str:
        if self.kind == STEP_PRUNE:
            return f"run {self.inputs}, prune covered"
        return f"run {self.inputs}, {self.kind} {self.count}"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, fired just before step (or round) ``step``."""

    step: int
    kind: str

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.step < 0:
            raise ValueError("step must be >= 0")


@dataclass(frozen=True)
class ProbeSchedule:
    """A deterministic sequence of probe-state mutations.

    ``seed`` drives the replay-time probe picks; it is derived from the
    generator seed and the schedule id, so every subject replaying the
    same schedule touches the same probes.  ``faults`` is the optional
    fault plan; ``tenants`` (cluster chaos) holds one schedule per
    tenant, replayed in rounds instead of ``steps``.
    """

    schedule_id: int
    seed: int
    steps: Tuple[ScheduleStep, ...] = ()
    faults: Tuple[FaultEvent, ...] = ()
    tenants: Tuple["ProbeSchedule", ...] = ()

    @property
    def lanes(self) -> Tuple["ProbeSchedule", ...]:
        """The step sequences replayed side by side: tenants, or self."""
        return self.tenants or (self,)

    @property
    def rounds(self) -> int:
        return max((len(lane.steps) for lane in self.lanes), default=0)

    def pick_seeds(self) -> List[int]:
        """Per-lane probe-pick seeds (one per tenant for cluster chaos)."""
        if not self.tenants:
            return [self.seed]
        return [self.seed ^ (0xA11CE + 131 * i) for i in range(len(self.tenants))]

    def describe_faults(self) -> str:
        return "; ".join(f"@{f.step} {f.kind}" for f in self.faults) or "none"

    def describe(self) -> str:
        inner = "; ".join(step.describe() for step in self.steps)
        return f"schedule #{self.schedule_id} (seed {self.seed}): {inner}"


def generate_schedules(
    count: int,
    seed: int,
    *,
    min_steps: int = 3,
    max_steps: int = 6,
    max_probes_per_step: int = 4,
    max_inputs_per_step: int = 3,
    include_prune: bool = True,
) -> List[ProbeSchedule]:
    """Generate *count* schedules, a pure function of the arguments."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 1 <= min_steps <= max_steps:
        raise ValueError("need 1 <= min_steps <= max_steps")
    kinds = [
        (kind, weight)
        for kind, weight in _KIND_WEIGHTS
        if include_prune or kind != STEP_PRUNE
    ]
    rng = DeterministicRNG(seed)
    schedules: List[ProbeSchedule] = []
    for schedule_id in range(count):
        replay_seed = rng.randint(0, 2**62)
        steps = tuple(
            ScheduleStep(
                kind=weighted_pick(rng, kinds),
                count=rng.randint(1, max_probes_per_step),
                inputs=rng.randint(0, max_inputs_per_step),
            )
            for _ in range(rng.randint(min_steps, max_steps))
        )
        schedules.append(ProbeSchedule(schedule_id, replay_seed, steps))
    return schedules


def _fault_plan(rng, steps, min_faults, max_faults, weights):
    return tuple(sorted(
        (
            FaultEvent(rng.randint(0, steps - 1), weighted_pick(rng, weights))
            for _ in range(rng.randint(min_faults, max_faults))
        ),
        key=lambda f: (f.step, f.kind),
    ))


def generate_chaos_schedules(
    count: int,
    seed: int,
    *,
    min_faults: int = 1,
    max_faults: int = 3,
    **schedule_kwargs,
) -> List[ProbeSchedule]:
    """Probe schedules with a service fault plan (pure function of args).

    Probe steps come from :func:`generate_schedules` (pruning excluded
    unless ``include_prune=True``); fault events are then placed at
    seeded step indices.
    """
    if not 0 <= min_faults <= max_faults:
        raise ValueError("need 0 <= min_faults <= max_faults")
    schedule_kwargs.setdefault("include_prune", False)
    rng = DeterministicRNG(seed ^ 0x5EEDFA17)
    return [
        ProbeSchedule(
            s.schedule_id, s.seed, s.steps,
            _fault_plan(rng, len(s.steps), min_faults, max_faults,
                        _SERVICE_FAULT_WEIGHTS),
        )
        for s in generate_schedules(count, seed, **schedule_kwargs)
    ]


def generate_cluster_chaos_schedules(
    count: int,
    seed: int,
    *,
    tenants: int = 8,
    min_faults: int = 1,
    max_faults: int = 2,
    **schedule_kwargs,
) -> List[ProbeSchedule]:
    """Per-tenant probe schedules + a shard fault plan (pure function).

    Cluster tenants execute no corpus inputs, so there is no coverage
    to prune: ``include_prune=True`` is rejected here rather than left
    to fail at replay.
    """
    if tenants < 1:
        raise ValueError("need at least one tenant")
    if not 0 <= min_faults <= max_faults:
        raise ValueError("need 0 <= min_faults <= max_faults")
    if schedule_kwargs.setdefault("include_prune", False):
        raise ValueError(
            "cluster chaos tenants execute no inputs; prune steps are unsupported"
        )
    rng = DeterministicRNG(seed ^ 0xC1A57E12)
    out: List[ProbeSchedule] = []
    for schedule_id in range(count):
        lanes = tuple(generate_schedules(
            tenants, seed + 7919 * (schedule_id + 1), **schedule_kwargs
        ))
        rounds = max(len(s.steps) for s in lanes)
        faults = _fault_plan(rng, rounds, min_faults, max_faults,
                             _CLUSTER_FAULT_WEIGHTS)
        out.append(ProbeSchedule(schedule_id, seed, faults=faults, tenants=lanes))
    return out


def pick_targets(
    rng: DeterministicRNG, eligible: Sequence[T], count: int
) -> List[T]:
    """Deterministically pick up to *count* distinct items from *eligible*.

    The caller passes a stably ordered sequence (the resolver sorts live
    probes by id); sampling is without replacement so one step never
    issues the same op twice.
    """
    remaining = list(eligible)
    picked: List[T] = []
    while remaining and len(picked) < count:
        picked.append(remaining.pop(rng.randint(0, len(remaining) - 1)))
    return picked

"""Replay subjects and the configurations every CLI check runs.

A subject is one live build the replay kernel (:mod:`repro.check.oracle`)
drives through a schedule:

* :class:`EngineSubject` — an in-process Odin engine, in the plain
  incremental configuration or one of the patch / memo / full tiers;
* :class:`ServiceSubject` — the recompilation service (dispatcher,
  batching, content and link caches, worker pool);
* :class:`FaultedServiceSubject` — the supervised service under a fault
  plan: worker crash/hang, cache corruption, dispatcher restart and
  expired deadlines;
* :class:`ClusterSubject` — the sharded multi-tenant cluster under
  shard kill / hang / router partition, one lane per tenant;
* :class:`CleanDispatchSubject` — the merged variant image with every
  call pinned to the clean family.

The functions at the bottom configure the kernel for each command:
``repro check`` (:func:`rebuild_replay`), ``repro check --tiers``
(:func:`tier_replay`), ``repro chaos`` (:func:`chaos_replay`),
``repro cluster`` (:func:`cluster_replay`) and the clean-dispatch leg
of ``repro check`` / ``repro partisan`` (:func:`check_clean_dispatch`).
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Dict, List

from repro.check.oracle import (
    DifferentialOracle,
    Layout,
    Outcome,
    Replay,
    Report,
    Side,
    Subject,
    behaviour,
    block_probes,
    compare,
    corpus,
    engine_side,
)
from repro.check.schedules import (
    FAULT_CACHE_CORRUPT,
    FAULT_DEADLINE_EXPIRE,
    FAULT_DISPATCHER_RESTART,
    FAULT_ROUTER_PARTITION,
    FAULT_SHARD_HANG,
    FAULT_SHARD_KILL,
    FAULT_WORKER_CRASH,
    FAULT_WORKER_HANG,
    STEP_DISABLE,
    STEP_ENABLE,
    STEP_PRUNE,
    STEP_REMOVE,
    ProbeSchedule,
)
from repro.core.engine import Odin
from repro.fuzz.executor import PRESERVED, OdinCovExecutor
from repro.instrument.coverage import OdinCov
from repro.programs.registry import TargetProgram
from repro.service.jobs import (
    OP_DISABLE,
    OP_ENABLE,
    OP_REMOVE,
    DeadlineExpiredError,
    ProbeOp,
)
from repro.service.resilience import RetryPolicy
from repro.service.server import RecompilationService, ServiceError
from repro.service.workers import MODE_PROCESS, WorkerCrashError, WorkerTimeoutError
from repro.utils.rng import DeterministicRNG

_OPS = {
    STEP_DISABLE: OP_DISABLE,
    STEP_ENABLE: OP_ENABLE,
    STEP_REMOVE: OP_REMOVE,
    STEP_PRUNE: OP_REMOVE,
}


def _tier_engines() -> Dict[str, dict]:
    """Tier label -> engine configuration, full last: the fast tiers are
    diffed against the slowest, most conservative build."""
    from repro.service.cache import InMemoryCodeCache, PassMemoCache

    return {
        # stage-1 probe patching over the cached master object
        "patch": dict(enable_patching=True, object_cache=InMemoryCodeCache()),
        # every rebuild re-lowers; optimized IR replays from the memo
        "memo": dict(enable_patching=False, pass_memo=PassMemoCache()),
        "full": dict(enable_patching=False),
    }


class _SingleLane(Subject):
    """A subject with one engine, one coverage tool and one executor."""

    def engine(self, lane: int) -> Odin:
        return self._engine

    def tool(self, lane: int) -> OdinCov:
        return self._tool

    def execute(self, lane: int, data: bytes) -> None:
        self.executor.execute(data)

    def _settle(self, kind: str) -> None:
        if kind == STEP_PRUNE:
            self._tool.runtime.clear()
        self.executor._refresh_vm()


class EngineSubject(_SingleLane):
    """An Odin engine rebuilt in-process; tier rebuilds are counted."""

    def __init__(self, outcome: Outcome, program: TargetProgram, label: str,
                 **engine_kwargs):
        super().__init__(outcome, label)
        self._engine = Odin(program.compile(), preserve=PRESERVED, **engine_kwargs)
        self._tool = block_probes(self._engine)
        self._tool.build()
        self.executor = OdinCovExecutor(self._tool)

    def apply(self, lane: int, kind: str, ids: List[int]) -> None:
        manager = self._engine.manager
        probes = {p.id: p for p in manager}
        for pid in ids:
            if kind == STEP_DISABLE:
                manager.disable(probes[pid])
            elif kind == STEP_ENABLE:
                manager.enable(probes[pid])
            else:  # remove, prune
                self._tool.probes.pop(pid, None)
                manager.remove(probes[pid])
        before = len(self._engine.history)
        self._engine.rebuild_if_needed()
        # Proves a sweep exercised the fast paths, not just the fallback.
        for report in self._engine.history[before:]:
            self.outcome.count("tiers_hit", report.tier)
        self._settle(kind)


class ServiceSubject(_SingleLane):
    """The engine registered on a recompilation service; every probe op
    travels through a client — the full production path."""

    tolerates_breaker = False   # an open breaker is a failure when healthy

    def __init__(self, outcome: Outcome, program: TargetProgram, *,
                 workers: int, worker_mode: str, reply_timeout_s: float = 60.0,
                 engine_kwargs=None, **service_kwargs):
        super().__init__(outcome, "incremental")
        self.reply_timeout_s = reply_timeout_s
        self.service = RecompilationService(
            workers=workers, worker_mode=worker_mode, **service_kwargs
        )
        self._engine = self.service.register_target(
            program.name, program.compile(), preserve=PRESERVED,
            **(engine_kwargs or {}),
        )
        self.client = self.service.client(program.name, "replay")
        self._tool = block_probes(self._engine)
        self.service.build(program.name)
        self.service.start()
        self.executor = OdinCovExecutor(self._tool)

    def apply(self, lane: int, kind: str, ids: List[int]) -> None:
        if kind in (STEP_REMOVE, STEP_PRUNE):
            for pid in ids:
                self._tool.probes.pop(pid, None)
        try:
            self.client.rebuild([ProbeOp(_OPS[kind], pid) for pid in ids],
                                timeout=self.reply_timeout_s)
            self.outcome.count("replies")
        except ServiceError as error:
            if error.retry_after_s is None or not self.tolerates_breaker:
                raise
            # Breaker open: a fast failure, not a hang.  Count it; the
            # step's ops were never applied, so state stays consistent.
            self.outcome.count("breaker_rejections")
        self._settle(kind)

    def close(self) -> None:
        self.service.close()


class FaultedServiceSubject(ServiceSubject):
    """The supervised service with a fault plan fired before probe steps.

    * ``worker-crash`` / ``worker-hang`` arm a WorkerCrashError /
      WorkerTimeoutError on the supervised compiler's ``fault_injector``
      hook, firing inside the next real compile exactly where a dying or
      wedged pool worker would surface;
    * ``cache-corrupt`` flips bytes of one stored blob in the persistent
      cache, which must quarantine it as a miss, never raise or serve it;
    * ``dispatcher-restart`` stops (drained) and restarts the dispatcher;
    * ``deadline-expire`` submits a job whose deadline has passed while
      the dispatcher is down, which the queue must shed.

    Patching is off: the patch tier services toggles without reaching
    the worker pool, but armed worker faults only fire inside a compile
    batch — every step must take the full path for faults to land.
    Victim keys and retry backoff derive from the schedule seed, so a
    failing run replays with the same ``--seed``.
    """

    tolerates_breaker = True

    def __init__(self, outcome: Outcome, program: TargetProgram,
                 schedule: ProbeSchedule, *, workers: int, worker_mode: str,
                 batch_timeout_s: float, reply_timeout_s: float):
        self.workdir = tempfile.mkdtemp(prefix="repro-chaos-")
        self.rng = DeterministicRNG(schedule.seed ^ 0xC4A05)
        self._armed: List[type] = []
        self._corrupted: List[str] = []
        try:
            super().__init__(
                outcome, program, workers=workers, worker_mode=worker_mode,
                reply_timeout_s=reply_timeout_s,
                engine_kwargs=dict(enable_patching=False),
                cache_dir=f"{self.workdir}/cache",
                retry_policy=RetryPolicy(seed=schedule.seed),
                batch_timeout_s=batch_timeout_s,
            )
        except BaseException:
            shutil.rmtree(self.workdir, ignore_errors=True)
            raise
        self.service.compiler.fault_injector = self._inject

    def _inject(self, compiler, batch, attempt) -> None:
        """SupervisedCompiler hook: fire one armed fault per attempt."""
        if self._armed and batch:
            raise self._armed.pop(0)(
                f"chaos: injected fault in schedule "
                f"#{self.outcome.schedule.schedule_id} "
                f"(attempt {attempt}, batch of {len(batch)})"
            )

    def fire(self, event, index: int) -> None:
        if event.kind == FAULT_WORKER_CRASH:
            self._armed.append(WorkerCrashError)
        elif event.kind == FAULT_WORKER_HANG:
            self._armed.append(WorkerTimeoutError)
        elif event.kind == FAULT_CACHE_CORRUPT:
            keys = self.service.cache.keys()
            if not keys:  # nothing stored yet: fault is a no-op
                return
            victim = keys[self.rng.randint(0, len(keys) - 1)]
            self.service.cache.inject_fault("corrupt-obj", key=victim)
            self._corrupted.append(victim)
        elif event.kind == FAULT_DISPATCHER_RESTART:
            self.service.stop(drain=True)
            self.service.start()
        elif event.kind == FAULT_DEADLINE_EXPIRE:
            # Submitted while the dispatcher is down with a deadline of
            # zero: already expired by the time dispatch resumes, so the
            # queue must shed it instead of compiling for nobody.
            self.service.stop(drain=True)
            job = self.client.submit((), deadline_s=0.0)
            self.service.start()
            try:
                job.result(self.reply_timeout_s)
                self.outcome.mismatches.append(
                    f"deadline-expired job before step {event.step} was "
                    f"compiled instead of shed"
                )
            except DeadlineExpiredError:
                self.outcome.count("shed")
        else:
            super().fire(event, index)
        self.outcome.count("injected", event.kind)

    def verdict(self, check) -> None:
        """The service degraded but never lied: leftover faults counted,
        corrupted entries self-healed, final state equals from-scratch."""
        counters = self.outcome.counters
        counters["unfired_worker_faults"] = len(self._armed)
        self._armed.clear()  # never let a leftover fault poison teardown
        # A get may miss (quarantined) but must never raise; wrong bytes
        # that got linked are the comparator's to catch.
        cache = self.service.cache
        for key in self._corrupted:
            try:
                cache.get(key)
            except Exception as error:  # noqa: BLE001 - the assertion itself
                self.outcome.mismatches.append(
                    f"corrupted cache entry {key[:12]} raised "
                    f"{type(error).__name__} instead of degrading to a miss"
                )
        stats = self.service.compiler.stats()
        counters["worker_restarts"] = stats["worker_restarts"]
        counters["degradations"] = stats["degradations"]
        counters["quarantined"] = getattr(cache, "quarantined", 0)
        super().verdict(check)

    def close(self) -> None:
        try:
            super().close()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


class ClusterSubject(Subject):
    """A fresh sharded cluster, one lane per tenant.

    Tenants alternate interactive (weight 3) / bulk (weight 1) and are
    spread round-robin over the programs, so several tenants always
    share a program — exercising content-key co-location and the shared
    cache tier while shards die under them.  Faults fire before a round;
    after it, due partitions heal and a health check runs.
    """

    def __init__(self, outcome: Outcome, schedule: ProbeSchedule,
                 programs: List[TargetProgram], *, shards: int, tenants: int,
                 reply_timeout_s: float, quota_window: int):
        from repro.cluster import CompileCluster, TenantSpec
        from repro.cluster.tenants import TIER_BULK, TIER_INTERACTIVE

        super().__init__(outcome, "cluster")
        self.lanes = tenants
        self.rng = DeterministicRNG(schedule.seed ^ 0x51A8D0)
        self.cluster = CompileCluster(
            shards=shards,
            reply_timeout_s=reply_timeout_s,
            quota_window=quota_window,
            heartbeat_miss_threshold=2,
        )
        # shard id -> replay round at which its partition heals.
        self._partitions: Dict[str, int] = {}
        self.tenants = []
        self.records = outcome.counters["tenants"]
        for index in range(tenants):
            tenant_id = f"tenant-{index}"
            program = programs[index % len(programs)]
            interactive = index % 2 == 0
            self.cluster.register_tenant(TenantSpec(
                tenant_id,
                weight=3.0 if interactive else 1.0,
                tier=TIER_INTERACTIVE if interactive else TIER_BULK,
            ))
            self.cluster.register_target(
                tenant_id, program.name, program.compile(),
                instrument=block_probes, preserve=PRESERVED,
            )
            self.tenants.append((tenant_id, program.name))
            spec = self.cluster.tenants.spec(tenant_id)
            self.records.append(dict(
                tenant_id=tenant_id, program=program.name, weight=spec.weight,
                tier=spec.tier, steps=0, replies=0, shed_quota=0,
                shed_deadline=0, resubmits=0, breaker_rejections=0,
                mismatches=[], ok=True,
            ))
        self.cluster.start()
        self.clients = [
            self.cluster.client(tenant_id, name, client_id=tenant_id)
            for tenant_id, name in self.tenants
        ]

    # Always re-fetch: a failover swaps the engine (and tool) under a tenant.
    def engine(self, lane: int) -> Odin:
        return self.cluster.engine(*self.tenants[lane])

    def tool(self, lane: int) -> OdinCov:
        return self.cluster.tool(*self.tenants[lane])

    def side(self, lane: int) -> Side:
        return engine_side(self.tenants[lane][0], self.engine(lane))

    def apply(self, lane: int, kind: str, ids: List[int]) -> None:
        from repro.cluster import TenantQuotaError

        record = self.records[lane]
        try:
            self.clients[lane].rebuild(tuple(ProbeOp(_OPS[kind], pid) for pid in ids))
        except TenantQuotaError:
            record["shed_quota"] += 1
            return  # ops never reached a shard; state unchanged
        except DeadlineExpiredError:
            record["shed_deadline"] += 1
            return  # shed before apply on a healthy shard
        except ServiceError as error:
            if error.retry_after_s is None:
                raise
            record["breaker_rejections"] += 1
            return
        record["replies"] += 1

    def _victim(self):
        """A faultable shard: live, preferring ones hosting targets.

        None (the fault is a no-op) when fewer than two shards survive —
        a failover needs somewhere to send the targets.
        """
        live = list(self.cluster.ring.nodes)
        if len(live) < 2:
            return None
        hosting = sorted({
            entry.shard_id for entry in self.cluster._targets.values()
            if entry.shard_id in live
        })
        pool = hosting or sorted(live)
        return pool[self.rng.randint(0, len(pool) - 1)]

    def fire(self, event, index: int) -> None:
        victim = self._victim()
        if victim is None:
            return
        shard = self.cluster.shards[victim]
        if event.kind == FAULT_SHARD_KILL:
            shard.kill()
        elif event.kind == FAULT_SHARD_HANG:
            shard.hang()
        elif event.kind == FAULT_ROUTER_PARTITION:
            shard.partition()
            # Heals after 1-2 rounds — racing the 2-miss condemnation
            # threshold, so seeded schedules cover both the transient
            # (heal, no failover) and escalated (failover) paths.
            self._partitions[victim] = index + self.rng.randint(1, 2)
        else:
            super().fire(event, index)
        self.outcome.count("injected", event.kind)

    def tick(self, index: int) -> None:
        for shard_id, heal_at in list(self._partitions.items()):
            if index + 1 >= heal_at:
                shard = self.cluster.shards[shard_id]
                if not shard.fenced:  # failover may have won the race
                    shard.heal_partition()
                del self._partitions[shard_id]
        self.cluster.check_health_once()

    def verdict(self, check) -> None:
        """Every tenant's final state — on whatever shard it ended up —
        must rebuild identical to an uninterrupted from-scratch run."""
        metrics = self.cluster.metrics
        self.outcome.counters.update(
            failovers=int(metrics.counter("failovers")),
            migrations=int(metrics.counter("targets_migrated")),
            resubmits=int(metrics.counter("resubmits")),
            live_shards=len(self.cluster.ring),
            degraded=self.cluster.degraded,
        )
        stats = self.cluster.tenants.stats()["tenants"]
        for lane, record in enumerate(self.records):
            found = check(lane)
            record.update(
                steps=sum(1 for step in self.outcome.steps if step.lane == lane),
                resubmits=int(stats.get(record["tenant_id"], {}).get("resubmits", 0)),
                mismatches=found,
                ok=not found,
            )
            self.outcome.mismatches.extend(found)

    def close(self) -> None:
        self.cluster.close()


class CleanDispatchSubject(Subject):
    """The merged variant image, every call pinned to the clean family.

    Dispatch must add mechanism, not behaviour: the clean family sits at
    offset 0 of the merged table, so with a zero dispatch tax the image
    must be indistinguishable — down to the cycle — from the plain
    uninstrumented build.
    """

    def __init__(self, outcome: Outcome, program: TargetProgram, seed: int):
        from repro.variants.builder import VariantBuilder
        from repro.variants.dispatch import MODE_PER_CALL, VariantSelector

        super().__init__(outcome, "clean-dispatch")
        self.builder = VariantBuilder(program.compile, preserve=PRESERVED)
        self.builder.build()
        self.selector = VariantSelector(
            {self.builder.spec.default: 1.0}, seed=seed, mode=MODE_PER_CALL
        )

    def engine(self, lane: int) -> Odin:
        return self.builder.build_for(self.builder.spec.default).engine

    def side(self, lane: int) -> Side:
        clean = self.engine(lane)

        def run(data: bytes):
            return behaviour(lambda rt: self.builder.make_vm(
                selector=self.selector, dispatch_tax=0, extra_runtime=rt
            ), data)

        return Side(self.label, clean.object_fingerprints(),
                    clean.executable_fingerprint(), run)


# -- configurations -------------------------------------------------------------


def _tally(table) -> str:
    return ", ".join(f"{key}={value}" for key, value in sorted((table or {}).items()))


def _shed(outcome: Outcome) -> int:
    return sum(t["shed_quota"] + t["shed_deadline"]
               for t in outcome.counters.get("tenants", ()))


CHECK_LAYOUT = Layout(
    "schedule", "MISMATCH", "MISMATCHES",
    lambda r: (f"{r.name}: {len(r.outcomes)} schedules, "
               f"{r.comparisons} rebuild comparisons, {r.status}"),
)
TIER_LAYOUT = Layout(
    "schedule", "DIVERGENCE", "DIVERGENCES",
    lambda r: (f"{r.name}: tier sweep, {len(r.outcomes)} schedules, "
               f"{r.comparisons} comparisons, "
               f"tiers hit [{_tally(r.total('tiers_hit'))}], {r.status}"),
)
CHAOS_LAYOUT = Layout(
    "chaos", "CHAOS", "FAILURES",
    lambda r: (f"{r.name}: {len(r.outcomes)} chaos schedules "
               f"(seed {r.meta.get('seed')}), {r.faults_injected} faults "
               f"injected, {r.total('worker_restarts')} worker restarts, "
               f"{r.total('shed')} jobs shed, {r.status}"),
    lambda o: (f"chaos #{o.schedule.schedule_id} (seed {o.schedule.seed}): "
               f"{len(o.schedule.steps)} steps, faults: "
               f"{o.schedule.describe_faults()}: "
               f"{o.counters['replies']} replies, {o.counters['shed']} shed, "
               f"{o.counters['worker_restarts']} restarts, "
               f"{o.counters['quarantined']} quarantined"),
)
CLUSTER_LAYOUT = Layout(
    "cluster chaos", "CLUSTER", "FAILURES",
    lambda r: (f"{r.name}: {len(r.outcomes)} schedules "
               f"(seed {r.meta.get('seed')}), {r.faults_injected} faults, "
               f"{r.total('failovers')} failovers, {r.total('resubmits')} "
               f"resubmits, {sum(map(_shed, r.outcomes))} shed, {r.status}"),
    lambda o: (f"cluster chaos #{o.schedule.schedule_id} "
               f"(seed {o.schedule.seed}): {len(o.schedule.tenants)} tenants, "
               f"{o.schedule.rounds} rounds, faults: "
               f"{o.schedule.describe_faults()}: "
               f"{sum(o.counters['injected'].values())} faults, "
               f"{o.counters['failovers']} failovers, "
               f"{o.counters['migrations']} migrated, "
               f"{o.counters['resubmits']} resubmits, {_shed(o)} shed, "
               f"{o.counters['live_shards']} shards live"),
)
CLEAN_LAYOUT = Layout(
    "clean dispatch", "VARIANT", "MISMATCHES",
    lambda r: (f"{r.name}: clean-dispatch equivalence over "
               f"{r.total('inputs')} inputs, {r.status}"),
)


def rebuild_replay(program: TargetProgram, *, service: bool = False,
                   workers: int = 1, worker_mode: str = "serial",
                   max_inputs: int = 4) -> Replay:
    """``repro check``: the engine (or the healthy service) against a
    from-scratch build after every effective step."""
    oracle = DifferentialOracle(program, max_inputs=max_inputs)

    def subjects(schedule, outcome):
        if service:
            yield ServiceSubject(outcome, program, workers=workers,
                                 worker_mode=worker_mode)
        else:
            yield EngineSubject(outcome, program, "incremental")

    return Replay(
        program.name, subjects,
        lambda subjects, lane: oracle.compare_to_reference(subjects[0].engine(lane)),
        CHECK_LAYOUT, oracle.inputs,
    )


def tier_replay(program: TargetProgram, *, max_inputs: int = 4) -> Replay:
    """``repro check --tiers``: patch, memo and full engines replay the
    same ops; the fast tiers are diffed against full after every step."""
    inputs = corpus(program, 0, max_inputs)

    def subjects(schedule, outcome):
        for label, kwargs in _tier_engines().items():
            yield EngineSubject(outcome, program, label, **kwargs)

    def reference(subjects, lane):
        fast, full = subjects[:-1], subjects[-1]
        return compare([s.side(lane) for s in fast], full.side(lane), inputs)

    return Replay(program.name, subjects, reference, TIER_LAYOUT, inputs,
                  counters=lambda: {"tiers_hit": {}})


def chaos_replay(program: TargetProgram, *, workers: int = 2,
                 worker_mode: str = MODE_PROCESS, max_inputs: int = 4,
                 batch_timeout_s: float = 30.0,
                 reply_timeout_s: float = 120.0) -> Replay:
    """``repro chaos``: a fresh faulted service per schedule, judged once
    at the end against a fault-free from-scratch build."""
    oracle = DifferentialOracle(program, max_inputs=max_inputs)

    def subjects(schedule, outcome):
        yield FaultedServiceSubject(
            outcome, program, schedule, workers=workers,
            worker_mode=worker_mode, batch_timeout_s=batch_timeout_s,
            reply_timeout_s=reply_timeout_s,
        )

    return Replay(
        program.name, subjects,
        lambda subjects, lane: oracle.compare_to_reference(subjects[0].engine(lane)),
        CHAOS_LAYOUT, oracle.inputs, every_step=False,
        counters=lambda: dict(
            injected={}, replies=0, shed=0, breaker_rejections=0,
            worker_restarts=0, degradations=0, quarantined=0,
            unfired_worker_faults=0,
        ),
        meta={"program": program.name, "seed": None},
    )


def cluster_replay(programs: List[TargetProgram], *, shards: int = 3,
                   tenants: int = 8, max_inputs: int = 3,
                   reply_timeout_s: float = 4.0,
                   quota_window: int = 64) -> Replay:
    """``repro cluster``: a fresh faulted cluster per schedule; every
    tenant's final state is diffed against a from-scratch build."""
    if not programs:
        raise ValueError("need at least one program")
    oracles = {p.name: DifferentialOracle(p, max_inputs=max_inputs)
               for p in programs}

    def subjects(schedule, outcome):
        yield ClusterSubject(
            outcome, schedule, programs, shards=shards, tenants=tenants,
            reply_timeout_s=reply_timeout_s, quota_window=quota_window,
        )

    def reference(subjects, lane):
        tenant_id, name = subjects[0].tenants[lane]
        return oracles[name].compare_to_reference(subjects[0].engine(lane), tenant_id)

    names = [p.name for p in programs]
    return Replay(
        f"cluster[{','.join(names)}] x{shards} shards", subjects, reference,
        CLUSTER_LAYOUT, every_step=False,
        counters=lambda: dict(
            injected={}, failovers=0, migrations=0, resubmits=0,
            live_shards=0, degraded=False, tenants=[],
        ),
        meta={"programs": names, "seed": None, "shards": shards},
    )


def check_clean_dispatch(program: TargetProgram, *, seed: int = 0,
                         max_inputs: int = 6) -> Report:
    """Prove clean-only dispatch equals the uninstrumented baseline: the
    empty schedule replayed on :class:`CleanDispatchSubject`."""
    inputs = corpus(program, seed, max_inputs)

    def reference(subjects, lane):
        baseline = Odin(program.compile(), preserve=PRESERVED)
        baseline.initial_build()
        return compare([subjects[0].side(lane)],
                       engine_side("baseline", baseline), inputs)

    replay = Replay(
        program.name,
        lambda schedule, outcome: [CleanDispatchSubject(outcome, program, seed)],
        reference, CLEAN_LAYOUT, inputs, every_step=False,
        counters=lambda: {"inputs": len(inputs)},
    )
    return replay.run([ProbeSchedule(0, seed)])

"""The recompilation service: many clients, one engine per target.

Structure (inference-server style)::

    clients ──▶ JobQueue ──▶ dispatcher ──▶ batch merge (dedup)
                                         ──▶ PatchManager mutations
                                         ──▶ Odin.rebuild
                                               ├─ content cache (hits skip compile)
                                               ├─ fragment worker pool (misses)
                                               └─ link cache (skip relink)
                                         ──▶ ServiceReply fan-out to jobs

The dispatcher drains *all* pending requests for a target into one
batch: concurrent probe-change requests are merged, duplicate ops are
deduplicated, and a single rebuild answers every client.  The engine
runs with the service's shared content-addressed code cache (optionally
persistent, so warm state survives restarts) and fragment compile pool.

Fault tolerance (``repro.service.resilience``): the fragment pool runs
under a :class:`~repro.service.resilience.SupervisedCompiler` (restart,
retry with seeded backoff, process→thread→serial degradation ladder),
transient :class:`~repro.service.workers.WorkerError`s retry the merged
batch instead of failing every waiter, a
:class:`~repro.service.resilience.CircuitBreaker` fails new submissions
fast (with a ``retry_after_s`` hint) once the engine keeps breaking,
jobs carry optional deadlines and the queue a max depth (expired /
overflow jobs are shed, never silently dropped), and shutdown drains
under a finite ``drain_timeout_s`` — abandoned jobs are counted and
answered with an error rather than left waiting forever.

``RecompilationService`` can run its dispatcher on a background thread
(``start()``/``stop()``, or as a context manager) or be stepped
deterministically with ``process_once()`` — tests and the benchmark use
the latter to control batching exactly.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Dict, List, Optional

from repro.core.engine import Odin, RebuildReport
from repro.errors import ReproError, ScheduleError
from repro.ir.module import Module
from repro.linker.cache import LinkCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import stage_totals
from repro.obs.tracer import CAT_FAULT, CAT_SERVICE, Tracer
from repro.service.cache import (
    CodeCache,
    InMemoryCodeCache,
    PassMemoCache,
    PersistentCodeCache,
)
from repro.service.jobs import (
    OP_DISABLE,
    OP_ENABLE,
    OP_MARK_CHANGED,
    OP_REMOVE,
    CompileRequest,
    Job,
    JobQueue,
    ProbeOp,
    ServiceReply,
    batch_clients,
    merge_batch,
)
from repro.service.resilience import (
    BREAKER_STATE_GAUGE,
    CircuitBreaker,
    RetryPolicy,
    SupervisedCompiler,
)
from repro.service.workers import MODE_SERIAL, WorkerError, make_compiler

log = logging.getLogger("repro.service")


class ServiceError(ReproError):
    """Service-level failure; carries ``retry_after_s`` when the circuit
    breaker is open so clients know when to come back."""

    def __init__(self, message: str, *, retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class _Target:
    """One registered target: engine + serialization lock."""

    def __init__(self, name: str, engine: Odin):
        self.name = name
        self.engine = engine
        self.lock = threading.Lock()


class RecompilationService:
    """Long-running compile server for on-the-fly recompilation."""

    def __init__(
        self,
        *,
        workers: int = 1,
        worker_mode: str = MODE_SERIAL,
        cache: Optional[CodeCache] = None,
        cache_dir: Optional[str] = None,
        cache_max_bytes: int = 64 * 1024 * 1024,
        link_cache_entries: int = 32,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        poll_interval_s: float = 0.02,
        supervise: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        batch_timeout_s: Optional[float] = 30.0,
        queue_max_depth: Optional[int] = None,
        drain_timeout_s: float = 30.0,
        pass_memo: bool = True,
    ):
        if cache is not None and cache_dir is not None:
            raise ServiceError("pass either cache or cache_dir, not both")
        if cache is None:
            cache = (
                PersistentCodeCache(cache_dir, max_bytes=cache_max_bytes)
                if cache_dir is not None
                else InMemoryCodeCache(max_bytes=cache_max_bytes)
            )
        self.cache = cache
        # Tier-2 pass memoization, shared by every target and every rung
        # of the degradation ladder: re-optimizing IR the service has
        # already optimized (for any target/variant) costs isel only.
        # ``pass_memo`` may also be a ready-made cache instance — the
        # cluster mounts one memo (like one object cache) across every
        # shard so cross-shard failovers keep their memoized middle end.
        if pass_memo is None or pass_memo is False:
            self.pass_memo = None
        elif pass_memo is True:
            self.pass_memo = PassMemoCache()
        else:
            self.pass_memo = pass_memo
        self.metrics = metrics or MetricsRegistry()
        # One tracer shared by every target engine and the dispatcher:
        # rebuild span trees nest under the dispatch ("service.batch")
        # spans of the thread that executed them.
        self.tracer = tracer or Tracer()
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        if supervise:
            self.compiler = SupervisedCompiler(
                worker_mode,
                workers,
                retry=self.retry_policy,
                metrics=self.metrics,
                tracer=self.tracer,
                batch_timeout_s=batch_timeout_s,
                memo=self.pass_memo,
            )
        else:
            self.compiler = make_compiler(
                worker_mode, workers, batch_timeout_s=batch_timeout_s,
                memo=self.pass_memo,
            )
        self.link_cache_entries = link_cache_entries
        self.queue = JobQueue(max_depth=queue_max_depth, metrics=self.metrics)
        self.poll_interval_s = poll_interval_s
        self.drain_timeout_s = drain_timeout_s
        self._targets: Dict[str, _Target] = {}
        # Guards `_targets`: registrations race with dispatcher lookups.
        self._state_lock = threading.Lock()
        self._dispatcher: Optional[threading.Thread] = None
        self._running = threading.Event()
        # Speculative precompilation: target name -> speculator, serviced
        # only when the dispatcher finds the queue idle.
        self._speculators: Dict[str, "ProbeStateSpeculator"] = {}
        self.speculation_budget = 4

    # -- target management -----------------------------------------------------

    def register_target(self, name: str, module: Module, **odin_kwargs) -> Odin:
        """Create a target's engine wired to the service's caches/pool."""
        with self._state_lock:
            if name in self._targets:
                raise ServiceError(f"target {name!r} is already registered")
        # Engine construction is slow; do it outside the lock and settle
        # concurrent registrations of the same name at insertion.
        odin_kwargs.setdefault("tracer", self.tracer)
        odin_kwargs.setdefault("pass_memo", self.pass_memo)
        engine = Odin(
            module,
            object_cache=self.cache,
            compiler=self.compiler,
            link_cache=LinkCache(self.link_cache_entries),
            **odin_kwargs,
        )
        with self._state_lock:
            if name in self._targets:
                raise ServiceError(f"target {name!r} is already registered")
            self._targets[name] = _Target(name, engine)
            count = len(self._targets)
        self.metrics.set_gauge("targets", count)
        return engine

    def engine(self, target: str) -> Odin:
        return self._target(target).engine

    def build(self, target: str) -> RebuildReport:
        """Run a target's initial build through the service pipeline."""
        entry = self._target(target)
        with entry.lock:
            start = time.perf_counter()
            report = entry.engine.initial_build()
            self._record_rebuild(report, time.perf_counter() - start)
        return report

    def client(self, target: str, client_id: str = "anon") -> "ServiceClient":
        from repro.service.client import ServiceClient

        self._target(target)  # validate early
        return ServiceClient(self, target, client_id)

    def _target(self, name: str) -> _Target:
        with self._state_lock:
            try:
                return self._targets[name]
            except KeyError:
                raise ServiceError(f"unknown target {name!r}") from None

    # -- request path ----------------------------------------------------------

    def submit(self, request: CompileRequest) -> Job:
        self._target(request.target)
        if not self.breaker.allow():
            retry_after = self.breaker.retry_after_s()
            self.metrics.inc("breaker_rejections")
            raise ServiceError(
                f"circuit breaker is open after repeated batch failures; "
                f"retry in {retry_after:.2f}s",
                retry_after_s=retry_after,
            )
        # JobQueue.submit stamps job.submitted_at under the queue lock,
        # before the dispatcher can see the job; it may shed with
        # QueueFullError when the queue is at max depth.
        job = self.queue.submit(request)
        # Expired result() waits surface the breaker's recovery hint.
        job.retry_hint = self.breaker.retry_after_s
        self.metrics.set_gauge("queue_depth", self.queue.depth())
        return job

    def process_once(self, timeout: Optional[float] = 0.0) -> int:
        """Drain and execute one batch synchronously; returns jobs served."""
        target, batch = self.queue.pop_batch(timeout)
        if not batch:
            return 0
        self._execute_batch(target, batch)
        return len(batch)

    # -- background dispatcher -------------------------------------------------

    def start(self) -> "RecompilationService":
        if self._dispatcher is not None:
            return self
        self._running.set()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="odin-dispatcher", daemon=True
        )
        self._dispatcher.start()
        return self

    def stop(
        self, drain: bool = True, drain_timeout_s: Optional[float] = None
    ) -> int:
        """Stop the dispatcher; returns how many jobs were left behind.

        With ``drain`` the queue is given up to ``drain_timeout_s``
        (default: the service's ``drain_timeout_s``) to empty — shutdown
        can no longer spin forever behind a wedged engine.  Jobs still
        queued or in flight when the deadline passes are *abandoned*:
        counted (``drain_abandoned``), logged, and left queued so a
        restarted dispatcher can still serve them (``close()`` answers
        them with an error instead).
        """
        if self._dispatcher is None:
            return 0
        budget = self.drain_timeout_s if drain_timeout_s is None else drain_timeout_s
        deadline = time.monotonic() + budget
        if drain:
            while self.queue.depth() and time.monotonic() < deadline:
                time.sleep(self.poll_interval_s)
        self._running.clear()
        self._dispatcher.join(timeout=max(deadline - time.monotonic(), budget / 2))
        stuck = self._dispatcher.is_alive()
        self._dispatcher = None
        abandoned = self.queue.depth() + (1 if stuck else 0)
        if abandoned:
            self.metrics.inc("drain_abandoned", abandoned)
            log.warning(
                "service stopped with %d job(s) abandoned%s (drain budget %.1fs)",
                abandoned,
                " and a stuck dispatcher" if stuck else "",
                budget,
            )
        return abandoned

    def close(self) -> None:
        self.stop()
        # Never leave a waiter hanging: whatever survived the drain gets
        # an error reply instead of an eternal wait().
        for job in self.queue.drain_remaining():
            job.set_error(
                ServiceError("service closed before this job was dispatched")
            )
        close = getattr(self.compiler, "close", None)
        if close is not None:
            close()
        # Persist any deferred LRU ticks (persistent cache only).
        flush = getattr(self.cache, "flush", None)
        if flush is not None:
            flush()

    def __enter__(self) -> "RecompilationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _dispatch_loop(self) -> None:
        while self._running.is_set():
            try:
                served = self.process_once(timeout=self.poll_interval_s)
                if served == 0:
                    # Idle lane: warm the cache for predicted probe
                    # states.  Real jobs always win — speculation only
                    # runs when a poll interval passed with no work.
                    self.run_speculation()
            except Exception:  # keep the dispatcher alive, whatever happens
                self.metrics.inc("dispatcher_errors")
                log.exception("dispatcher error; continuing")

    # -- speculative precompilation --------------------------------------------

    def attach_speculator(
        self, target: str, *, top_k: int = 3, max_states: int = 4
    ) -> "ProbeStateSpeculator":
        """Create and register a speculator for *target*'s engine.

        Feed it corpus observations (``speculator.observe_corpus``); the
        dispatcher services its predictions whenever the job queue goes
        idle.  Returns the speculator (also reachable via
        ``service.speculator(target)``).
        """
        from repro.service.speculate import ProbeStateSpeculator

        entry = self._target(target)
        speculator = ProbeStateSpeculator(
            entry.engine, top_k=top_k, max_states=max_states
        )
        with self._state_lock:
            self._speculators[target] = speculator
        return speculator

    def speculator(self, target: str) -> Optional["ProbeStateSpeculator"]:
        with self._state_lock:
            return self._speculators.get(target)

    def run_speculation(self, budget: Optional[int] = None) -> int:
        """Service pending predictions; returns fragments precompiled.

        Backpressure: refuses to speculate while real jobs are queued,
        and each target's engine lock is taken so speculation can never
        interleave with a live rebuild of the same target.
        """
        if self.queue.depth():
            return 0
        budget = self.speculation_budget if budget is None else budget
        with self._state_lock:
            speculators = list(self._speculators.items())
        compiled = 0
        for target, speculator in speculators:
            if speculator.pending() == 0:
                continue
            if self.queue.depth():  # a real job arrived mid-sweep
                break
            entry = self._target(target)
            with entry.lock:
                compiled += speculator.precompile(budget)
        if compiled:
            self.metrics.inc("speculative_compiles", compiled)
        return compiled

    # -- batch execution -------------------------------------------------------

    def _execute_batch(self, target: str, batch: List[Job]) -> None:
        entry = self._target(target)
        now = time.perf_counter()
        waits_ms = [(now - job.submitted_at) * 1000.0 for job in batch]
        for wait in waits_ms:
            self.metrics.observe("queue_wait_ms", wait)
        self.metrics.set_gauge("queue_depth", self.queue.depth())

        try:
            ops, submitted, applied = merge_batch(batch)
            skipped = 0
            start = time.perf_counter()
            with entry.lock, self.tracer.span(
                "service.batch",
                cat=CAT_SERVICE,
                clock=entry.engine.clock,
                target=target,
                batch_size=len(batch),
                queue_wait_ms=max(waits_ms, default=0.0),
            ):
                for op in ops:
                    if not self._apply_op(entry.engine, op):
                        skipped += 1
                report, attempts = self._rebuild_with_retry(entry)
            real_ms = (time.perf_counter() - start) * 1000.0

            self.metrics.inc("requests_total", len(batch))
            self.metrics.inc("batches_total")
            self.metrics.inc("ops_submitted", submitted)
            self.metrics.inc("ops_applied", applied - skipped)
            self.metrics.inc("ops_skipped", skipped)
            self.metrics.observe("batch_size", len(batch))
            if report is not None:
                self._record_rebuild(report, real_ms / 1000.0)

            reply = ServiceReply(
                report=report,
                batch_size=len(batch),
                batch_clients=batch_clients(batch),
                ops_submitted=submitted,
                ops_applied=applied - skipped,
                ops_skipped=skipped,
                queue_wait_ms=max(waits_ms, default=0.0),
                attempts=attempts,
            )
            self._breaker_outcome(success=True)
            for job in batch:
                job.set_reply(reply)
        except BaseException as error:  # answer every waiter, then surface
            self.metrics.inc("batch_errors")
            self._breaker_outcome(success=False)
            for job in batch:
                job.set_error(error)
            if not isinstance(error, Exception):  # pragma: no cover
                raise

    def _rebuild_with_retry(self, entry: _Target) -> tuple:
        """Run the batch's rebuild, retrying transient worker faults.

        The probe ops are already applied (idempotently recorded in the
        PatchManager) and a failed rebuild does not clear the dirty set,
        so a retry re-schedules the same state.  Returns
        ``(report, attempts)``.
        """
        policy = self.retry_policy
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return entry.engine.rebuild_if_needed(), attempt
            except WorkerError as error:
                self.metrics.inc("batch_retries")
                if attempt >= policy.max_attempts:
                    raise
                delay = policy.delay_s(attempt)
                with self.tracer.span(
                    "service.retry",
                    cat=CAT_FAULT,
                    attempt=attempt,
                    backoff_s=round(delay, 4),
                    error=type(error).__name__,
                ):
                    time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def _breaker_outcome(self, *, success: bool) -> None:
        before = self.breaker.state
        if success:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        after = self.breaker.state
        self.metrics.set_gauge("breaker_state", BREAKER_STATE_GAUGE[after])
        if after != before and not success:
            self.metrics.inc("breaker_opens")
        if after != before:
            from repro.obs.tracer import Span

            self.tracer.record(
                Span(
                    "service.breaker",
                    cat=CAT_FAULT,
                    args={"from": before, "to": after},
                )
            )

    def _apply_op(self, engine: Odin, op: ProbeOp) -> bool:
        """Apply one probe op; False when the probe is gone (stale id)."""
        manager = engine.manager
        try:
            probe = manager.get_probe(op.probe_id)
            if op.kind == OP_ENABLE:
                manager.enable(probe)
            elif op.kind == OP_DISABLE:
                manager.disable(probe)
            elif op.kind == OP_REMOVE:
                manager.remove(probe)
            elif op.kind == OP_MARK_CHANGED:
                manager.mark_changed(probe)
            return True
        except ScheduleError:
            return False

    def _record_rebuild(self, report: RebuildReport, real_s: float) -> None:
        m = self.metrics
        m.inc("rebuilds_total")
        # Patched fragments never reached a compiler or the object cache:
        # they are their own tier, not compiles and not cache traffic.
        compiled = len(report.fragment_ids) - report.cache_hits - report.patched
        m.inc("fragments_compiled", compiled)
        m.inc("cache_hits", report.cache_hits)
        m.inc("cache_misses", compiled)
        m.inc("fragments_patched", report.patched)
        m.inc("memo_hits", report.memo_hits)
        m.inc("speculative_hits", report.speculative_hits)
        m.inc(f"rebuild_tier.{report.tier}")
        m.inc("probes_applied", report.probes_applied)
        if report.link_reused:
            m.inc("links_reused")
        m.observe("compile_sim_ms", report.compile_wall_ms)
        m.observe("link_sim_ms", report.link_ms)
        m.observe("rebuild_sim_ms", report.wall_ms)
        m.observe("rebuild_real_ms", real_s * 1000.0)
        if report.trace is not None:
            for stage, sim_ms in stage_totals([report.trace]).items():
                m.observe(f"stage.{stage}.sim_ms", sim_ms)

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """The ``stats()`` endpoint: metrics + cache + queue snapshot."""
        snapshot = self.metrics.stats()
        snapshot["code_cache"] = self.cache.stats()
        if self.pass_memo is not None:
            snapshot["pass_memo"] = self.pass_memo.stats()
        # Single-lock snapshot: the queue dict used to be assembled from
        # seven independent reads and could tear mid-update (a shed
        # between reads made shed_total != shed_expired + shed_overflow).
        snapshot["queue"] = self.queue.stats()
        with self._state_lock:
            targets = sorted(self._targets)
            entries = list(self._targets.items())
        snapshot["service"] = {
            "targets": targets,
            "workers": self.compiler.workers,
            "running": self._dispatcher is not None,
        }
        compiler_stats = getattr(self.compiler, "stats", None)
        if compiler_stats is not None:
            snapshot["service"]["compiler"] = compiler_stats()
        snapshot["breaker"] = self.breaker.stats()
        link_stats = {}
        for name, entry in entries:
            if entry.engine.link_cache is not None:
                link_stats[name] = entry.engine.link_cache.stats()
        snapshot["link_cache"] = link_stats
        with self._state_lock:
            speculators = list(self._speculators.items())
        if speculators:
            snapshot["speculation"] = {
                name: spec.stats() for name, spec in speculators
            }
        return snapshot

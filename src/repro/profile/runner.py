"""Budgeted profiling: the toggle actuator and ``run_profile``.

:func:`run_profile` puts enter/exit probes on every defined function
under a :class:`~repro.profile.tool.Profiler` and runs the shared budget
loop (:mod:`repro.budget`) with a :class:`ToggleActuator`, the front
door of ``repro profile`` and of the overhead benchmark.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.budget import (
    Actuator,
    BudgetReport,
    BudgetRun,
    BudgetWindow,
    run_budgeted,
)
from repro.core.engine import Odin, RebuildReport, TIER_NOOP, TIER_PATCH
from repro.fuzz.executor import PRESERVED
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.profile.tool import Profiler
from repro.programs.registry import TargetProgram

#: Tiers a pure probe-toggle rebuild is allowed to land on.
TOGGLE_TIERS = frozenset({TIER_PATCH, TIER_NOOP})


class ToggleActuator(Actuator):
    """Attributes each window's probe overhead to symbols exactly (every
    prof event has a fixed cost-model price), de-instruments the hottest
    symbols until the projection is back in the band, and re-instruments
    one symbol per window when the budget frees up.  Every flip is a
    patchable probe toggle, so each step lands on the engine's patch
    tier; the rebuild reports are kept as evidence (:attr:`rebuilds`)."""

    prefix = "profile"

    def __init__(self, tool: Profiler):
        self.tool = tool
        #: Rebuild report of every actuation — the patch-tier evidence.
        self.rebuilds: List[RebuildReport] = []
        #: Symbol -> estimated overhead fraction it carried when flipped
        #: off (the re-instrumentation ranking reads this).
        self.deinstrumented: Dict[str, float] = {}
        # Lifetime per-symbol probe-overhead cycles at the last window
        # boundary; deltas give this window's overhead.
        self._overhead_mark: Dict[str, int] = {}

    @property
    def fully_instrumented(self) -> bool:
        return not self.deinstrumented

    @property
    def image(self):
        return self.tool.engine.executable

    def make_vm(self):
        return self.tool.make_vm()

    def observe(self, result) -> Optional[str]:
        self.tool.runtime.finish_execution(result.cycles)
        return None

    @property
    def toggles_patch_only(self) -> bool:
        """Did every actuation land on the patch/noop tier (no compiles)?"""
        return all(
            tier in TOGGLE_TIERS
            for report in self.rebuilds
            for tier in report.fragment_tiers.values()
        )

    def step(self, window: BudgetWindow, window_baseline: int) -> None:
        lo, hi = self.config.band
        achieved = window.achieved_overhead
        if achieved > hi:
            window.deinstrumented = self._deinstrument(achieved, window_baseline)
        elif achieved < lo:
            window.reinstrumented = self._reinstrument(achieved)
        if window.deinstrumented or window.reinstrumented:
            window.rebuild_tier = self._rebuild()
        self._overhead_mark = self.tool.runtime.symbol_overhead_cycles()

    def _deinstrument(self, achieved: float, window_baseline: int) -> List[str]:
        """Flip off the hottest symbols until the projected overhead is
        back inside the band (without undershooting its floor)."""
        cfg = self.config
        lo, hi = cfg.band
        if not window_baseline:
            return []
        # Probe-overhead cycles each symbol charged *this window*.
        mark = self._overhead_mark
        est = {
            sym: (cyc - mark.get(sym, 0)) / window_baseline
            for sym, cyc in self.tool.runtime.symbol_overhead_cycles().items()
            if cyc > mark.get(sym, 0)
            and sym not in cfg.protected and sym not in self.deinstrumented
        }
        flipped: List[str] = []
        projected = achieved
        while projected > hi and est:
            if (
                cfg.max_deinstrumented is not None
                and len(self.deinstrumented) >= cfg.max_deinstrumented
            ):
                break
            # A single flip that lands at or below the ceiling finishes
            # the step: prefer the hottest one that stays inside the band,
            # else the one undershooting the least.  If no single flip
            # reaches the ceiling, strip the hottest and keep going.
            fits = [s for s in est if projected - est[s] <= hi]
            in_band = [s for s in fits if projected - est[s] >= lo]
            if in_band:
                pick = max(in_band, key=lambda s: (est[s], s))
            elif fits:
                pick = min(fits, key=lambda s: (est[s], s))
            else:
                pick = max(est, key=lambda s: (est[s], s))
            if self.tool.set_symbol_probes_enabled(pick, False) == 0:
                del est[pick]
                continue
            self.deinstrumented[pick] = est.pop(pick)
            projected -= self.deinstrumented[pick]
            flipped.append(pick)
            self.metrics.inc("profile.deinstrumented")
        return flipped

    def _reinstrument(self, achieved: float) -> List[str]:
        """Budget freed up: flip the coldest de-instrumented symbol back
        on, provided its estimated cost fits under the band ceiling."""
        hi = self.config.band[1]
        for symbol in sorted(
            self.deinstrumented, key=lambda s: (self.deinstrumented[s], s)
        ):
            if achieved + self.deinstrumented[symbol] > hi:
                break  # sorted ascending: nothing hotter fits either
            del self.deinstrumented[symbol]
            if self.tool.set_symbol_probes_enabled(symbol, True) == 0:
                continue
            self.metrics.inc("profile.reinstrumented")
            return [symbol]  # one per window: avoids oscillation
        return []

    def _rebuild(self) -> str:
        report = self.tool.engine.rebuild_if_needed()
        if report is None:
            return TIER_NOOP
        self.rebuilds.append(report)
        self.metrics.set_gauge("profile.rebuild.patched", float(report.patched))
        return report.tier


@dataclass
class ProfileReport(BudgetReport):
    """One budgeted profiling run, JSON-serializable."""

    window: int
    profiled_cycles: int
    probes_total: int
    probes_enabled: int
    flat: List[dict]                 # per-symbol rows, hottest first
    edges: List[dict]                # caller -> callee call counts
    cold_instrumented: List[str]     # zero calls seen, still instrumented
    unattributed: int                # counter events with no live probe
    rebuilds: int                    # controller actuations
    rebuild_tiers: List[str]         # worst tier of each actuation
    compile_batches: int             # fragments actually compiled by them
    toggles_patch_only: bool         # every actuation pure patch/noop

    def summary(self) -> str:
        return self._summary("", (
            f"{self.probes_enabled}/{self.probes_total} probes live, "
            f"{self.rebuilds} toggle rebuilds "
            f"({'patch-only' if self.toggles_patch_only else 'COMPILED'})"
        ))


def run_profile(
    program: TargetProgram,
    *,
    budget: float = 0.25,
    executions: int = 300,
    seed: int = 1,
    window: int = 20,
    max_inputs: int = 4,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> BudgetRun:
    """Profile *program* under an overhead budget."""

    def start(tracer, metrics):
        # Clean baseline: an uninstrumented engine over the same module.
        clean = Odin(program.compile(), preserve=PRESERVED)
        clean.initial_build()
        engine = Odin(program.compile(), preserve=PRESERVED, tracer=tracer)
        tool = Profiler(engine, metrics=metrics)
        tool.add_all_function_probes()
        tool.build()
        return ToggleActuator(tool), clean.executable

    run = run_budgeted(
        program, start, budget=budget, window=window, executions=executions,
        seed=seed, max_inputs=max_inputs, tracer=tracer, metrics=metrics,
    )
    actuator: ToggleActuator = run.actuator
    tool = actuator.tool

    # Final sync: runtime event counts -> probe.calls annotations; what
    # cannot be attributed any more lands in tool.unattributed.
    tool.sync_profiles(clear=True)
    tool.runtime.publish(run.metrics)
    run.tracer.record(tool.runtime.span_tree(f"profile:{program.name}"))

    runtime = tool.runtime
    enabled_symbols = {
        p.target_symbol() for p in tool.probes.values() if p.enabled
    }
    called = {sym for sym, stats in runtime.stats.items() if stats.calls}
    run.report = ProfileReport.of(
        run,
        window=run.controller.config.window,
        profiled_cycles=run.controller.total_cycles,
        probes_total=len(tool.probes),
        probes_enabled=sum(
            1 for probe in tool.probes.values() if probe.enabled
        ),
        flat=[
            {**asdict(stats), "enabled": stats.symbol in enabled_symbols}
            for stats in sorted(
                runtime.stats.values(),
                key=lambda s: (-s.incl_cycles, s.symbol),
            )
        ],
        edges=[
            {"caller": caller, "callee": callee, "calls": count}
            for (caller, callee), count in sorted(
                runtime.edges.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ],
        deinstrumented=sorted(actuator.deinstrumented),
        cold_instrumented=sorted(
            sym
            for sym in tool.probes.symbols()
            if sym not in called and sym in enabled_symbols
        ),
        unattributed=tool.unattributed,
        rebuilds=len(actuator.rebuilds),
        rebuild_tiers=[r.tier for r in actuator.rebuilds],
        compile_batches=sum(
            tier in ("full", "memo")
            for report in actuator.rebuilds
            for tier in report.fragment_tiers.values()
        ),
        toggles_patch_only=actuator.toggles_patch_only,
    )
    return run

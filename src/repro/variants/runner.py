"""PartiSan under a slowdown budget: the mix actuator and ``run_partisan``.

:func:`run_partisan` builds every family of the spec into one merged
image and runs the shared budget loop (:mod:`repro.budget`) with a
:class:`MixActuator`, the front door of ``repro partisan`` and of the
overhead benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.budget import (
    Actuator,
    BudgetConfig,
    BudgetReport,
    BudgetRun,
    BudgetWindow,
    run_budgeted,
)
from repro.fuzz.executor import PRESERVED
from repro.instrument.asan import ASanRuntime
from repro.instrument.coverage import CoverageRuntime
from repro.instrument.ubsan import UBSanRuntime
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.programs.registry import TargetProgram
from repro.variants.builder import VariantBuilder
from repro.variants.dispatch import MODE_PER_EXECUTION, VariantSelector
from repro.variants.spec import VariantSpec

_EPS = 1e-9
#: Exponent damping the multiplicative mix step: 1.0 jumps straight to
#: ``target/achieved`` (oscillates on noisy windows), 0.5 takes a
#: half-step in log space.
GAIN = 0.5
#: Per-window clamp on the multiplicative mix step (stability).
MIN_SCALE = 0.5
MAX_SCALE = 2.0
#: Instrumented families never drop below this normalized weight —
#: cold-path sanitization stays always-on ...
MIN_INSTRUMENTED_WEIGHT = 0.01
#: ... and never crowd the clean family out entirely.
MAX_INSTRUMENTED_WEIGHT = 0.95


class MixActuator(Actuator):
    """Over budget, pins the hottest still-instrumented function whose
    window call share clears ``hot_call_share`` to the clean family and
    strips its probes by an on-the-fly fragment recompile
    (:meth:`~repro.variants.builder.VariantBuilder.deinstrument_symbol`).
    Every window it scales the instrumented families' weights by
    ``(target / achieved) ** GAIN`` (clamped); the clean family absorbs
    the remainder."""

    prefix = "partisan"

    def __init__(
        self,
        builder: VariantBuilder,
        selector: VariantSelector,
        dispatch_tax: int = 0,
    ):
        self.builder = builder
        self.selector = selector
        self.dispatch_tax = dispatch_tax
        self._fn_calls_mark: Dict[str, int] = {}

    def bind(self, config: BudgetConfig, metrics: MetricsRegistry) -> None:
        super().bind(config, metrics)
        self._publish_mix()

    @property
    def image(self):
        return self.builder.executable

    def make_vm(self):
        return self.builder.make_vm(
            selector=self.selector, dispatch_tax=self.dispatch_tax
        )

    def observe(self, result) -> Optional[str]:
        # Per-execution mode attributes a whole run to its drawn family.
        return self.selector.last_execution_family

    def family_costs(self) -> Dict[str, float]:
        """Mean cycles-over-baseline ratio observed per family — the
        per-variant cost, read back from the metrics registry."""
        stats = {
            name: self.metrics.latency(f"partisan.cost.{name}")
            for name in self.builder.family_names
        }
        return {n: s.total_ms / s.count for n, s in stats.items() if s.count}

    def step(self, window: BudgetWindow, window_baseline: int) -> None:
        if window.achieved_overhead > self.config.band[1]:
            symbol = self._maybe_deinstrument()
            if symbol is not None:
                window.deinstrumented.append(symbol)
        self._rescale_mix(window.achieved_overhead)
        window.mix = dict(self.selector.mix)
        self._fn_calls_mark = dict(self.selector.function_calls)

    def _deinstrument_cap(self) -> int:
        if self.config.max_deinstrumented is not None:
            return self.config.max_deinstrumented
        exe = self.builder.executable
        table = len(exe.variant_index) if exe is not None else 0
        return max(1, table // 2)

    def _maybe_deinstrument(self) -> Optional[str]:
        """Pin the hottest eligible function to clean and strip its probes."""
        if len(self.builder.deinstrumented) >= self._deinstrument_cap():
            return None
        window_calls = {
            name: count - self._fn_calls_mark.get(name, 0)
            for name, count in self.selector.function_calls.items()
        }
        total = sum(window_calls.values())
        if not total:
            return None
        default = self.builder.spec.default
        for name in sorted(window_calls, key=lambda n: (-window_calls[n], n)):
            if window_calls[name] / total < self.config.hot_call_share:
                break  # sorted descending: nothing below is hot either
            if name in self.config.protected:
                continue
            if self.selector.pinned.get(name) == default:
                continue
            flipped = self.builder.deinstrument_symbol(name)
            self.selector.pin(name, default)
            if flipped:
                self.metrics.inc("partisan.deinstrumented")
                self.metrics.inc(
                    "partisan.probes.flipped", sum(flipped.values())
                )
                return name
            # The symbol carried no probes (pin alone still helps);
            # keep looking for one that does.
        return None

    def _rescale_mix(self, achieved: float) -> None:
        mix = dict(self.selector.mix)  # normalized by the selector
        instrumented = [
            f.name
            for f in self.builder.spec.families
            if f.instrumented and f.name in mix
        ]
        plain = [name for name in mix if name not in instrumented]
        if not instrumented or not plain:
            return
        scale = (self.config.target_overhead / max(achieved, _EPS)) ** GAIN
        scale = min(max(scale, MIN_SCALE), MAX_SCALE)
        new_inst = {
            name: max(mix[name] * scale, MIN_INSTRUMENTED_WEIGHT)
            for name in instrumented
        }
        inst_total = sum(new_inst.values())
        if inst_total > MAX_INSTRUMENTED_WEIGHT:
            shrink = MAX_INSTRUMENTED_WEIGHT / inst_total
            new_inst = {name: w * shrink for name, w in new_inst.items()}
            inst_total = MAX_INSTRUMENTED_WEIGHT
        # The plain (clean) families split the remainder, keeping their
        # relative proportions.
        plain_total = sum(mix[name] for name in plain)
        remainder = 1.0 - inst_total
        new_mix = dict(new_inst)
        for name in plain:
            share = mix[name] / plain_total if plain_total else 1.0 / len(plain)
            new_mix[name] = remainder * share
        self.selector.set_mix(new_mix)
        self._publish_mix()

    def _publish_mix(self) -> None:
        for name, weight in self.selector.mix.items():
            self.metrics.set_gauge(f"partisan.mix.{name}", weight)


@dataclass
class PartisanReport(BudgetReport):
    """One partitioned-sanitization run, JSON-serializable."""

    mode: str
    dispatch_tax: int
    dispatched_cycles: int
    probes: Dict[str, int]
    call_shares: Dict[str, float]
    execution_shares: Dict[str, float]
    family_costs: Dict[str, float]
    mix_final: Dict[str, float]
    pinned: Dict[str, str]
    relinks: int
    findings: Dict[str, int]

    def summary(self) -> str:
        shares = ", ".join(
            f"{name}={share:.2f}" for name, share in sorted(self.call_shares.items())
        )
        return self._summary(f" ({self.mode})", f"call shares {{{shares}}}")


def _collect_findings(builder: VariantBuilder) -> Dict[str, int]:
    findings = {"asan_violations": 0, "ubsan_fires": 0, "coverage_blocks": 0}
    for fb in builder.builds.values():
        for tool in fb.tools:
            runtime = tool.runtime
            if isinstance(runtime, ASanRuntime):
                findings["asan_violations"] += len(runtime.violations)
            elif isinstance(runtime, UBSanRuntime):
                findings["ubsan_fires"] += sum(runtime.fire_counts.values())
            elif isinstance(runtime, CoverageRuntime):
                findings["coverage_blocks"] += len(runtime.covered_ids())
    return findings


def run_partisan(
    program: TargetProgram,
    *,
    budget: float = 0.25,
    executions: int = 240,
    seed: int = 1,
    mode: str = MODE_PER_EXECUTION,
    window: int = 30,
    dispatch_tax: int = 0,
    max_inputs: int = 4,
    spec: Optional[VariantSpec] = None,
    trap: bool = False,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> BudgetRun:
    """Run *program* under a variant mix held to an overhead budget."""

    def start(tracer, metrics):
        builder = VariantBuilder(
            program.compile,
            spec=spec,
            preserve=PRESERVED,
            trap=trap,
            tracer=tracer,
        )
        builder.build()
        selector = VariantSelector(
            builder.spec.initial_mix(), seed=seed, mode=mode
        )
        clean = builder.build_for(builder.spec.default).engine.executable
        return MixActuator(builder, selector, dispatch_tax), clean

    run = run_budgeted(
        program, start, budget=budget, window=window, executions=executions,
        seed=seed, max_inputs=max_inputs, tracer=tracer, metrics=metrics,
    )
    actuator: MixActuator = run.actuator
    builder, selector = actuator.builder, actuator.selector
    run.report = PartisanReport.of(
        run,
        mode=mode,
        dispatch_tax=dispatch_tax,
        dispatched_cycles=run.controller.total_cycles,
        probes=builder.probe_counts(),
        call_shares=selector.call_shares(),
        execution_shares=selector.execution_shares(),
        family_costs=actuator.family_costs(),
        mix_final=dict(selector.mix),
        deinstrumented=list(builder.deinstrumented),
        pinned=dict(selector.pinned),
        relinks=builder.relinks,
        findings=_collect_findings(builder),
    )
    return run

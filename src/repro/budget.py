"""One budget loop for instrumentation that is switched off on demand.

Odin's §7 payoff driven by a slowdown budget (Kreutzer et al.,
PAPERS.md): :class:`BudgetController` windows executions, scores each
window's cycles against the clean baseline of the same inputs, and hands
the closed window to an :class:`Actuator`, the only per-family part:
:class:`repro.variants.runner.MixActuator` (PartiSan's variant mix) or
:class:`repro.profile.runner.ToggleActuator` (per-symbol profiling
probes).  :func:`run_budgeted` is the run driver both front doors share.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.fuzz.executor import PRESERVED, run_input
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.vm.interpreter import VM


@dataclass(frozen=True)
class BudgetConfig:
    #: The budget: target fractional slowdown over the clean baseline.
    target_overhead: float = 0.25
    #: Executions per control window.
    window: int = 30
    #: Relative band around the target counting as converged.
    tolerance: float = 0.25
    #: Windows averaged when judging convergence (one window of a
    #: stochastic mix is far too noisy to score on).
    convergence_windows: int = 3
    #: Share of a window's calls a function needs before the mix
    #: actuator counts it hot enough to de-instrument.
    hot_call_share: float = 0.25
    #: Cap on de-instrumented symbols (None = the actuator's default).
    max_deinstrumented: Optional[int] = None
    #: Symbols never de-instrumented — the entry points: monolithic
    #: programs inline everything into them, so stripping one would
    #: switch instrumentation off wholesale.
    protected: FrozenSet[str] = frozenset()

    def __post_init__(self):
        if self.target_overhead <= 0:
            raise ValueError("target_overhead must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if not 0.0 < self.hot_call_share <= 1.0:
            raise ValueError("hot_call_share must be in (0, 1]")

    @property
    def band(self) -> Tuple[float, float]:
        """(lo, hi) overhead band the controller steers into."""
        return (
            self.target_overhead * (1.0 - self.tolerance),
            self.target_overhead * (1.0 + self.tolerance),
        )


@dataclass
class BudgetWindow:
    """One closed control window and what the actuator did in it."""

    index: int
    executions: int
    achieved_overhead: float
    deinstrumented: List[str] = field(default_factory=list)
    reinstrumented: List[str] = field(default_factory=list)
    mix: Optional[Dict[str, float]] = None  # mix actuator
    rebuild_tier: Optional[str] = None      # toggle actuator

    @property
    def summary(self) -> str:
        parts = [f"window {self.index}: overhead {self.achieved_overhead:+.3f}"]
        if self.mix is not None:
            weights = ", ".join(f"{k}={v:.2f}" for k, v in self.mix.items())
            parts.append(f"mix {{{weights}}}")
        if self.deinstrumented:
            parts.append(f"deinstrumented {', '.join(self.deinstrumented)}")
        if self.reinstrumented:
            parts.append(f"reinstrumented {', '.join(self.reinstrumented)}")
        if self.rebuild_tier:
            parts.append(f"tier={self.rebuild_tier}")
        return "; ".join(parts)


class Actuator:
    """What a budget loop switches.  Subclasses provide
    ``step(window, window_baseline)`` (act on a closed window and record
    what was done in it), ``observe(result)`` (after each execution; may
    name the family that ran), ``image`` (the executable currently
    linked) and ``make_vm()``."""

    #: Metric namespace: ``partisan`` or ``profile``.
    prefix = ""
    #: Every probe is live: an under-budget run has nothing left to add,
    #: which ``converged`` accepts as a fixed point.
    fully_instrumented = False

    def bind(self, config: BudgetConfig, metrics: MetricsRegistry) -> None:
        self.config = config
        self.metrics = metrics


class BudgetController:
    """Windows executions and steers an actuator to hold a slowdown."""

    def __init__(
        self,
        actuator: Actuator,
        config: Optional[BudgetConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.actuator = actuator
        self.config = config if config is not None else BudgetConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.windows: List[BudgetWindow] = []
        self.executions = self.total_cycles = self.total_baseline = 0
        self._win_cycles = self._win_baseline = self._win_execs = 0
        actuator.bind(self.config, self.metrics)

    def record_execution(
        self, cycles: int, baseline_cycles: int, family: Optional[str] = None
    ) -> None:
        """Account one execution against the clean cost of the same
        input; *family* feeds the per-variant cost estimate."""
        prefix = self.actuator.prefix
        self.executions += 1
        self.total_cycles += cycles
        self.total_baseline += baseline_cycles
        self._win_cycles += cycles
        self._win_baseline += baseline_cycles
        self._win_execs += 1
        self.metrics.observe(f"{prefix}.exec.cycles", float(cycles))
        if family is not None and baseline_cycles > 0:
            self.metrics.observe(
                f"{prefix}.cost.{family}", cycles / baseline_cycles
            )
        if self._win_execs >= self.config.window:
            self._close_window()

    @property
    def achieved_overhead(self) -> float:
        """Lifetime fractional slowdown vs. the clean baseline."""
        if not self.total_baseline:
            return 0.0
        return self.total_cycles / self.total_baseline - 1.0

    @property
    def last_window_overhead(self) -> Optional[float]:
        return self.windows[-1].achieved_overhead if self.windows else None

    @property
    def converged(self) -> bool:
        """Is the recent-window mean overhead inside the tolerance band
        (or below it with nothing left to instrument)?"""
        recent = self.windows[-self.config.convergence_windows:]
        if not recent:
            return False
        mean = sum(w.achieved_overhead for w in recent) / len(recent)
        target = self.config.target_overhead
        if abs(mean - target) <= self.config.tolerance * target:
            return True
        return mean < target and self.actuator.fully_instrumented

    def _close_window(self) -> None:
        prefix = self.actuator.prefix
        achieved = (
            self._win_cycles / self._win_baseline - 1.0
            if self._win_baseline
            else 0.0
        )
        self.metrics.set_gauge(f"{prefix}.window.overhead", achieved)
        self.metrics.set_gauge(
            f"{prefix}.lifetime.overhead", self.achieved_overhead
        )
        self.metrics.inc(f"{prefix}.windows")
        window = BudgetWindow(len(self.windows), self._win_execs, achieved)
        self.actuator.step(window, self._win_baseline)
        self.windows.append(window)
        self._win_cycles = self._win_baseline = self._win_execs = 0


@dataclass
class BudgetReport:
    """The fields every budgeted run reports; JSON-serializable."""

    program: str
    seed: int
    budget: float
    executions: int
    baseline_cycles: int
    achieved_overhead: float
    final_window_overhead: Optional[float]
    converged: bool
    windows: int
    deinstrumented: List[str]

    @classmethod
    def of(cls, run: "BudgetRun", **fields):
        """The report of what *run*'s controller actually ran."""
        controller = run.controller
        return cls(
            program=run.program,
            seed=run.seed,
            budget=controller.config.target_overhead,
            executions=controller.executions,
            baseline_cycles=controller.total_baseline,
            achieved_overhead=controller.achieved_overhead,
            final_window_overhead=controller.last_window_overhead,
            converged=controller.converged,
            windows=len(controller.windows),
            **fields,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def _summary(self, mode: str, details: str) -> str:
        deinst = ", ".join(self.deinstrumented)
        tail = f", de-instrumented: {deinst}" if deinst else ""
        return (
            f"{self.program}: {self.executions} executions{mode}, "
            f"overhead {self.achieved_overhead:+.3f} vs budget "
            f"{self.budget:+.3f} "
            f"({'converged' if self.converged else 'not converged'}), "
            f"{details}{tail}"
        )


@dataclass
class BudgetRun:
    """A budgeted run: its report plus the live objects."""

    program: str
    seed: int
    controller: BudgetController
    tracer: Tracer
    metrics: MetricsRegistry
    report: Optional[BudgetReport] = None

    @property
    def actuator(self):
        return self.controller.actuator


def run_budgeted(
    program,
    start,
    *,
    budget: float,
    window: int,
    executions: int,
    seed: int,
    max_inputs: int,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> BudgetRun:
    """Run *program*'s seed corpus under a budget loop that protects the
    entry points; the caller fills in the run's report.

    ``start(tracer, metrics)`` builds the instrumented side once the
    corpus is known to be non-empty, and returns its actuator plus the
    clean executable the baseline is measured on.
    """
    inputs = program.seeds(seed)[:max_inputs]
    if not inputs:
        raise ValueError(f"program {program.name!r} has an empty seed corpus")
    tracer = tracer if tracer is not None else Tracer()
    metrics = metrics if metrics is not None else MetricsRegistry()
    actuator, clean_exe = start(tracer, metrics)
    baseline = [run_input(VM(clean_exe), data).cycles for data in inputs]
    config = BudgetConfig(
        target_overhead=budget, window=window, protected=frozenset(PRESERVED)
    )
    controller = BudgetController(actuator, config, metrics)
    vm = actuator.make_vm()
    for i in range(executions):
        if vm.exe is not actuator.image:
            vm = actuator.make_vm()  # the actuator relinked mid-run
        result = run_input(vm, inputs[i % len(inputs)])
        family = actuator.observe(result)
        controller.record_execution(
            result.cycles, baseline[i % len(inputs)], family
        )
    return BudgetRun(program.name, seed, controller, tracer, metrics)

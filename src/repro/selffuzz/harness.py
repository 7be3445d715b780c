"""Differential selffuzz harness: -O0 ground truth vs the -O2 pipeline.

Every generated program runs through four legs:

1. **frontend + verifier** — the program must compile to verifier-clean
   IR (a generator invariant; a failure here is a generator bug);
2. **-O0 behaviour** — lower and execute the unoptimized module: the
   ground truth (generated programs are UB-free by construction);
3. **-O2 replay with attribution** — the exact ``optimize(level=2)``
   fixpoint schedule, re-verifying after every pass invocation
   (:func:`repro.selffuzz.bisect.run_o2_with_attribution`), then a
   behaviour comparison against the -O0 run;
4. **probe-integrity leg** — the same -O2 replay over a clone carrying
   one coverage probe per basic block, watched by the
   :class:`~repro.analysis.sanitizer.ProbeIntegritySanitizer` after every
   pass — the Odin-specific failure mode (a pass silently erasing,
   duplicating or unanchoring instrumentation).

Cycle counts are *not* compared: -O2 exists to change them.  Exit code,
stdout and trap state must be identical.

Every execution in legs 2 and 3 also runs on the reference VM
(:class:`~repro.vm.reference.ReferenceVM`): the -O0 and -O2 builds of
each program double as differential inputs for the VM's translated fast
path, which must match the reference loop exactly — exit code, stdout,
trap, cycles, steps and final memory.  A disagreement is its own verdict
(``vm-divergence``).

Behavioural divergences are attributed by prefix bisection
(:func:`repro.selffuzz.bisect.bisect_divergence`); verifier, sanitizer
and crash failures carry their pass attribution directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.sanitizer import ProbeIntegritySanitizer
from repro.backend.isel import lower_module
from repro.frontend import compile_source
from repro.instrument.coverage import ODIN_COV_RUNTIME, _COV_FN_TYPE
from repro.ir.builder import IRBuilder
from repro.ir.clone import clone_module
from repro.ir.module import Module
from repro.ir.types import I64
from repro.ir.values import ConstantInt
from repro.errors import ReproError
from repro.ir.verifier import verify_module
from repro.linker.linker import link
from repro.opt.pipeline import optimize
from repro.selffuzz.bisect import (
    AttributedFailure,
    BisectResult,
    PipelineFactory,
    bisect_divergence,
    run_o2_with_attribution,
)
from repro.selffuzz.generator import GeneratedProgram, ProgramGenerator
from repro.vm.interpreter import VM
from repro.vm.reference import ReferenceVM

STATUS_OK = "ok"
STATUS_DIVERGENCE = "behaviour-divergence"
STATUS_VERIFIER = "verifier-error"
STATUS_SANITIZER = "sanitizer-error"
STATUS_PASS_CRASH = "pass-crash"
STATUS_FRONTEND = "frontend-error"
#: The backend/linker/VM raised (not a guest trap — those are Behaviour
#: state).  At -O0 this is a toolchain bug regardless of the pipeline;
#: after -O2 it means the optimized module broke the backend.
STATUS_O0_CRASH = "o0-crash"
STATUS_BACKEND = "backend-crash"
#: The VM's fast path and the reference VM disagreed on one execution.
STATUS_VM_DIVERGENCE = "vm-divergence"

#: Step budget per generated-program execution — far above any generated
#: workload, far below the default VM ceiling, so runaway programs fail
#: fast instead of hanging the sweep.
MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class Behaviour:
    """The compared observable state of one execution."""

    exit_code: int
    stdout: bytes
    trap: Optional[str]

    def mismatches(self, other: "Behaviour") -> List[str]:
        out = []
        if self.exit_code != other.exit_code:
            out.append(f"exit_code {self.exit_code} != {other.exit_code}")
        if self.stdout != other.stdout:
            out.append(f"stdout {self.stdout!r} != {other.stdout!r}")
        if self.trap != other.trap:
            out.append(f"trap {self.trap!r} != {other.trap!r}")
        return out


@dataclass
class Verdict:
    """What the harness concluded about one program."""

    name: str
    status: str
    style: str = ""
    seed: int = 0
    index: int = 0
    pass_name: Optional[str] = None
    detail: str = ""
    mismatches: List[str] = field(default_factory=list)
    source: str = ""
    minimized_source: Optional[str] = None
    bisect: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def signature(self) -> Tuple[str, Optional[str]]:
        """The failure identity the minimizer must preserve.

        Behavioural divergences keep only the *category*: a reduction
        that still diverges is the same bug even if the diverging value
        changed (the bisected pass re-confirms identity afterwards).
        """
        if self.status == STATUS_DIVERGENCE:
            return (self.status, None)
        return (self.status, self.pass_name)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "status": self.status,
            "style": self.style,
            "seed": self.seed,
            "index": self.index,
            "pass": self.pass_name,
            "detail": self.detail,
            "mismatches": list(self.mismatches),
            "bisect": self.bisect,
            "source": self.source,
            "minimized_source": self.minimized_source,
        }


class VMDivergence(ReproError):
    """The fast VM and the reference VM disagreed on one execution."""


def _execute(vm: VM) -> Tuple[Tuple[object, ...], Optional[Exception]]:
    """Everything observable about running ``main`` on *vm*, and the error
    the run raised, if any: the step limit, a bad function address, or a
    crash of the VM itself (which the other VM must then repeat)."""
    try:
        result = vm.run("main")
    except Exception as error:
        return (type(error).__name__, str(error), vm.cycles, vm.steps), error
    outcome = (result.exit_code, result.stdout, result.trap, result.cycles, result.steps)
    return outcome, None


def run_module(module: Module, *, max_steps: int = MAX_STEPS) -> Behaviour:
    """Lower, link and execute ``main`` of an (optimized or not) module.

    The executable runs on the VM and on the reference VM; any difference
    between the two, an exception only one of them raises included, raises
    :class:`VMDivergence`.
    """
    executable = link([lower_module(module)])
    fast = VM(executable, max_steps=max_steps)
    reference = ReferenceVM(executable, max_steps=max_steps)
    (got, error), (want, _) = _execute(fast), _execute(reference)
    if got != want or fast.memory != reference.memory:
        detail = "final memory differs" if got == want else f"{got!r} != reference {want!r}"
        raise VMDivergence(f"fast VM vs reference VM in @{module.name}: {detail}")
    if error is not None:
        raise error
    exit_code, stdout, trap = got[:3]
    return Behaviour(exit_code, stdout, trap)


def o0_behaviour(module: Module, *, max_steps: int = MAX_STEPS) -> Behaviour:
    """Ground truth: execute a clone of *module* without optimization."""
    clone = clone_module(module, f"{module.name}.o0").module
    optimize(clone, 0)
    return run_module(clone, max_steps=max_steps)


def instrument_blocks(module: Module) -> int:
    """One coverage-probe call per basic block, engine-free.

    Mirrors ``OdinCov.add_all_block_probes`` minus the probe manager: a
    ``__odin_cov_hit(id)`` call at each block head gives the
    probe-integrity sanitizer a footprint to watch across the pipeline.
    Returns the number of probes inserted.
    """
    runtime = module.declare_function(ODIN_COV_RUNTIME, _COV_FN_TYPE)
    probe_id = 0
    for fn in module.defined_functions():
        for block in fn.blocks:
            anchor = block.non_phi_instructions()[0]
            builder = IRBuilder.before(anchor)
            builder.call(runtime, [ConstantInt(I64, probe_id)], _COV_FN_TYPE)
            probe_id += 1
    return probe_id


class SelfFuzzHarness:
    """Runs one MiniC source through every differential leg."""

    def __init__(
        self,
        *,
        pipeline: Optional[PipelineFactory] = None,
        sanitize: bool = True,
        attribute: bool = True,
        max_steps: int = MAX_STEPS,
    ):
        self.pipeline = pipeline
        self.sanitize = sanitize
        self.attribute = attribute
        self.max_steps = max_steps

    # -- entry points -------------------------------------------------------

    def check_program(self, program: GeneratedProgram) -> Verdict:
        verdict = self.check_source(program.source, program.name)
        verdict.style = program.style
        verdict.seed = program.seed
        verdict.index = program.index
        return verdict

    def check_source(self, source: str, name: str = "selffuzz") -> Verdict:
        try:
            module = compile_source(source, name)
            verify_module(module)
        except Exception as exc:  # frontend error OR verifier-unclean IR
            return Verdict(
                name=name, status=STATUS_FRONTEND,
                detail=f"{type(exc).__name__}: {exc}", source=source,
            )

        try:
            reference = o0_behaviour(module, max_steps=self.max_steps)
        except VMDivergence as exc:
            return Verdict(name=name, status=STATUS_VM_DIVERGENCE, detail=str(exc),
                           source=source)
        except Exception as exc:
            return Verdict(
                name=name, status=STATUS_O0_CRASH,
                detail=f"{type(exc).__name__}: {exc}", source=source,
            )

        # Leg 3: plain -O2 replay + behaviour comparison.
        o2 = clone_module(module, f"{name}.o2").module
        try:
            run_o2_with_attribution(o2, pipeline=self.pipeline)
        except AttributedFailure as failure:
            status = (STATUS_VERIFIER if failure.kind == "verifier"
                      else STATUS_PASS_CRASH)
            return Verdict(
                name=name, status=status, pass_name=failure.pass_name,
                detail=failure.detail, source=source,
            )
        try:
            optimized = run_module(o2, max_steps=self.max_steps)
        except VMDivergence as exc:
            return Verdict(name=name, status=STATUS_VM_DIVERGENCE, detail=str(exc),
                           source=source)
        except Exception as exc:
            return Verdict(
                name=name, status=STATUS_BACKEND,
                detail=f"{type(exc).__name__}: {exc}", source=source,
            )
        mismatches = reference.mismatches(optimized)
        if mismatches:
            verdict = Verdict(
                name=name, status=STATUS_DIVERGENCE,
                mismatches=mismatches, source=source,
                detail="; ".join(mismatches),
            )
            if self.attribute:
                self.attribute_divergence(verdict)
            return verdict

        # Leg 4: probe-integrity sanitizer over an instrumented clone.
        if self.sanitize:
            instrumented = clone_module(module, f"{name}.cov").module
            instrument_blocks(instrumented)
            verify_module(instrumented)
            sanitizer = ProbeIntegritySanitizer(instrumented)
            try:
                run_o2_with_attribution(
                    instrumented, pipeline=self.pipeline, sanitizer=sanitizer
                )
            except AttributedFailure as failure:
                status = {
                    "verifier": STATUS_VERIFIER,
                    "sanitizer": STATUS_SANITIZER,
                }.get(failure.kind, STATUS_PASS_CRASH)
                return Verdict(
                    name=name, status=status, pass_name=failure.pass_name,
                    detail=failure.detail, source=source,
                )

        return Verdict(name=name, status=STATUS_OK, source=source)

    # -- attribution --------------------------------------------------------

    def attribute_divergence(self, verdict: Verdict) -> Optional[BisectResult]:
        """Pin a behavioural divergence to its first diverging pass."""
        source, name = verdict.source, verdict.name

        def fresh() -> Module:
            return compile_source(source, name)

        def diverges(module: Module) -> bool:
            probe = clone_module(module, f"{module.name}.probe").module
            try:
                behaviour = run_module(probe, max_steps=self.max_steps)
            except VMDivergence:
                raise
            except Exception:
                # A prefix that breaks the backend does not behave like
                # -O0 either; bisection then pins the breaking pass.
                return True
            return bool(reference.mismatches(behaviour))

        try:
            reference = o0_behaviour(fresh(), max_steps=self.max_steps)
            result = bisect_divergence(fresh, diverges, pipeline=self.pipeline)
        except VMDivergence as exc:
            # Some prefix build runs differently on the two VMs: that is
            # the failure to report, not an optimizer pass.
            verdict.status = STATUS_VM_DIVERGENCE
            verdict.detail = str(exc)
            verdict.mismatches = []
            return None
        if result is not None:
            verdict.pass_name = result.pass_name
            verdict.bisect = result.describe()
        return result


@dataclass
class CampaignReport:
    """Aggregated outcome of one ``repro selffuzz`` sweep."""

    seed: int
    count: int
    styles: Dict[str, Dict[str, int]] = field(default_factory=dict)
    passes: Dict[str, int] = field(default_factory=dict)
    failures: List[Verdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, verdict: Verdict) -> None:
        style = self.styles.setdefault(
            verdict.style or "?", {"programs": 0, "failures": 0}
        )
        style["programs"] += 1
        if not verdict.ok:
            style["failures"] += 1
            self.failures.append(verdict)
            if verdict.pass_name:
                self.passes[verdict.pass_name] = (
                    self.passes.get(verdict.pass_name, 0) + 1
                )

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "ok": self.ok,
            "styles": {k: dict(v) for k, v in sorted(self.styles.items())},
            "passes": dict(sorted(self.passes.items())),
            "failures": [v.to_dict() for v in self.failures],
        }

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"selffuzz seed={self.seed}: {self.count} programs "
            f"across {len(self.styles)} styles, {status}"
        )


class SelfFuzzCampaign:
    """Generator x harness loop with optional auto-minimization."""

    def __init__(
        self,
        *,
        seed: int = 0,
        count: int = 100,
        mix: Optional[Dict[str, float]] = None,
        minimize: bool = False,
        harness: Optional[SelfFuzzHarness] = None,
        on_program: Optional[Callable[[Verdict], None]] = None,
    ):
        self.generator = ProgramGenerator(seed, mix)
        self.harness = harness or SelfFuzzHarness()
        self.seed = seed
        self.count = count
        self.minimize = minimize
        self.on_program = on_program

    def run(self) -> CampaignReport:
        report = CampaignReport(seed=self.seed, count=self.count)
        for index in range(self.count):
            program = self.generator.generate(index)
            verdict = self.harness.check_program(program)
            if not verdict.ok and self.minimize:
                self._minimize(verdict)
            report.record(verdict)
            if self.on_program is not None:
                self.on_program(verdict)
        return report

    def _minimize(self, verdict: Verdict) -> None:
        from repro.selffuzz.minimize import Minimizer

        minimizer = Minimizer(self.harness, verdict.signature())
        result = minimizer.minimize(verdict.source, verdict.name)
        verdict.minimized_source = result.source
        # Re-attribute on the minimized program: smaller replays, and the
        # minimized reproducer is what ships to the corpus.
        if verdict.status == STATUS_DIVERGENCE:
            small = Verdict(
                name=verdict.name, status=STATUS_DIVERGENCE,
                source=result.source,
            )
            if self.harness.attribute_divergence(small) is not None:
                verdict.pass_name = small.pass_name
                verdict.bisect = small.bisect

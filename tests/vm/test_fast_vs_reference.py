"""Differential tests: the translated fast path against the reference VM.

Every check runs the same input on two identically configured VMs — the
production :class:`~repro.vm.interpreter.VM` and
:class:`~repro.vm.reference.ReferenceVM`, the per-instruction loop — and
compares exit code, stdout, cycles, steps, trap (or the raised error),
the whole guest memory, the stack and heap pointers, and the state the
probe runtime, block hook or variant selector accumulated.

Inputs are every registry program's seed corpus plus seeded mutants;
the modes cover each VM setting that changes the translated code.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.isel import lower_module
from repro.baselines.dbi import DrCov
from repro.baselines.rewriter import LibInst
from repro.errors import ReproError
from repro.experiments.runners import build_baseline, build_odin_engine
from repro.frontend import compile_source
from repro.fuzz.executor import PRESERVED, run_input
from repro.fuzz.mutator import Mutator
from repro.instrument.asan import ASanRuntime, ASanTool
from repro.instrument.cmplog import CmpLogRuntime, add_cmp_probes
from repro.instrument.coverage import CoverageRuntime, OdinCov
from repro.instrument.ubsan import UBSanRuntime, UBSanTool
from repro.ir.parser import parse_module
from repro.linker.linker import link
from repro.opt.pipeline import optimize
from repro.profile.runtime import ProfilingRuntime
from repro.profile.tool import Profiler
from repro.programs.registry import get_program, program_names
from repro.utils.rng import DeterministicRNG
from repro.variants.builder import VariantBuilder
from repro.variants.dispatch import MODE_PER_CALL, MODE_PER_EXECUTION, VariantSelector
from repro.vm.interpreter import VM, CompositeProbeRuntime
from repro.vm.reference import ReferenceVM

PROGRAMS = program_names()
MUTANTS_PER_SEED = 1


# -- running one input on both VMs ------------------------------------------------


def _run(vm: VM, data: bytes) -> tuple:
    """Everything observable about one execution of *data* on *vm*."""
    try:
        result = run_input(vm, data)
        outcome = (result.exit_code, result.stdout, result.cycles, result.steps, result.trap)
    except ReproError as error:  # the step limit, a bad function address
        outcome = (type(error).__name__, str(error))
    return outcome + (vm.cycles, vm.steps, vm.stack_ptr, vm.heap_ptr)


def _as_reference(vm: VM) -> VM:
    """The same configured VM, executing on the reference loop."""
    vm.__class__ = ReferenceVM
    return vm


def assert_same(make: Callable[[], Tuple[VM, Callable[[], object]]], data: bytes,
                label: str = "") -> tuple:
    """Run *data* on a fast and a reference VM built by *make*.

    *make* returns a fresh VM and a function reading the state its
    runtime (or hook, or selector) accumulated.  Returns the outcome.
    """
    fast, fast_state = make()
    ref, ref_state = make()
    _as_reference(ref)
    got, want = _run(fast, data), _run(ref, data)
    context = (label, data)
    assert got == want, context
    assert fast.memory == ref.memory, context
    assert fast_state() == ref_state(), context
    return got


# -- inputs and builds (cached per program) ----------------------------------------


@lru_cache(maxsize=None)
def inputs(name: str) -> List[bytes]:
    """The seed corpus plus MUTANTS_PER_SEED seeded mutants per seed."""
    seeds = get_program(name).seeds()
    mutator = Mutator(DeterministicRNG(sum(map(ord, name))))
    mutants = [mutator.mutate(seed) for seed in seeds for _ in range(MUTANTS_PER_SEED)]
    return seeds + mutants


@lru_cache(maxsize=None)
def instrumented(name: str):
    """One image carrying every probe family: cov, cmplog, asan, ubsan, prof."""
    engine = build_odin_engine(get_program(name))
    OdinCov(engine, prune=False).add_all_block_probes()
    add_cmp_probes(engine)
    ASanTool(engine).add_all_access_probes()
    UBSanTool(engine).add_all_overflow_probes()
    profiler = Profiler(engine)
    profiler.add_all_function_probes()
    engine.initial_build()
    return engine.executable, profiler.runtime


@lru_cache(maxsize=None)
def baseline(name: str):
    return build_baseline(get_program(name)).executable


def _profile_state(runtime: ProfilingRuntime) -> tuple:
    nodes = [(n.symbol, n.calls, n.incl_cycles, n.excl_cycles) for n in runtime.root.walk()]
    return (runtime.stats, runtime.edges, nodes, runtime.events, runtime.symbol_events,
            [(f.symbol, f.entry_cycles, f.child_incl) for f in runtime._stack])


def _probe_modes(name: str):
    """Mode name -> VM factory, over the image with every probe family."""
    exe, profile_template = instrumented(name)

    def plain():
        return VM(exe), lambda: None

    def coverage():
        rt = CoverageRuntime()
        return VM(exe, probe_runtime=rt), lambda: rt.counters

    def cmplog():
        cov, cmp = CoverageRuntime(), CmpLogRuntime()
        return (VM(exe, probe_runtime=CompositeProbeRuntime(cov, cmp)),
                lambda: (cov.counters, cmp.pairs))

    def asan():
        rt = ASanRuntime(trap=True)
        return VM(exe, probe_runtime=rt), lambda: (rt.hit_counts, rt.violation, rt.violations)

    def ubsan():
        rt = UBSanRuntime(trap=True)
        return VM(exe, probe_runtime=rt), lambda: (rt.fired, rt.fire_counts)

    def profile():
        rt = ProfilingRuntime()
        rt.symbol_of = dict(profile_template.symbol_of)
        rt.kind_of = dict(profile_template.kind_of)
        return VM(exe, probe_runtime=rt), lambda: _profile_state(rt)

    return {"none": plain, "coverage": coverage, "cmplog": cmplog,
            "asan": asan, "ubsan": ubsan, "profile": profile}


def _hook_modes(name: str):
    exe = baseline(name)

    def drcov():
        tool = DrCov(exe)
        return tool.make_vm(), lambda: (tool.coverage, tool.translated)

    def libinst():
        tool = LibInst(exe)
        return tool.make_vm(), lambda: tool.coverage

    def taxed():
        return VM(exe, block_tax=3), lambda: None

    return {"drcov": drcov, "libinst": libinst, "block-tax": taxed}


# -- the program sweep ---------------------------------------------------------------


@pytest.mark.parametrize("name", PROGRAMS)
def test_probe_runtimes_match_reference(name):
    """Every input under coverage (the fuzzing mode) and one other mode.

    The other modes take turns over the inputs, so each sees about a
    fifth of them; the reference VM is what makes more too slow for a
    tier-1 run.
    """
    modes = _probe_modes(name)
    coverage = modes.pop("coverage")
    others = sorted(modes.items())
    for i, data in enumerate(inputs(name)):
        assert_same(coverage, data, "coverage")
        label, make = others[i % len(others)]
        assert_same(make, data, label)


@pytest.mark.parametrize("name", PROGRAMS)
def test_block_hooks_match_reference(name):
    hooks = sorted(_hook_modes(name).items())
    for i, data in enumerate(inputs(name)):
        label, make = hooks[i % len(hooks)]
        assert_same(make, data, label)


@pytest.mark.parametrize("name", PROGRAMS)
def test_step_limit_matches_reference(name):
    """Limits at, just below and well inside each run's step count."""
    exe, _ = instrumented(name)
    for data in inputs(name)[:4]:
        full = _run(ReferenceVM(exe, probe_runtime=CoverageRuntime()), data)
        steps = full[-3]
        for limit in sorted({1, steps // 3, steps // 2, steps - 1, steps}):
            def make(limit=limit):
                rt = CoverageRuntime()
                return VM(exe, probe_runtime=rt, max_steps=max(limit, 1)), lambda: rt.counters
            assert_same(make, data, f"max_steps={limit}")


@pytest.fixture(scope="module")
def variant_image():
    builder = VariantBuilder(get_program("json").compile, preserve=PRESERVED)
    return builder.build()


@pytest.mark.parametrize("selection", [MODE_PER_CALL, MODE_PER_EXECUTION])
def test_variant_dispatch_matches_reference(variant_image, selection):
    exe = variant_image

    def make():
        selector = VariantSelector(
            {family: 1.0 for family in exe.families}, seed=11, mode=selection
        )
        cov, asan, ubsan = CoverageRuntime(), ASanRuntime(trap=False), UBSanRuntime(trap=False)
        vm = VM(exe, probe_runtime=CompositeProbeRuntime(cov, asan, ubsan),
                variant_selector=selector, dispatch_tax=4)
        return vm, lambda: (selector.calls, selector.function_calls,
                            selector.execution_counts, cov.counters,
                            asan.hit_counts, asan.violations, ubsan.fire_counts)

    for data in inputs("json"):
        assert_same(make, data)


DEEP_CALLS = 600
# The stores keep ``down`` above the inliner's size threshold.
DEEP = f"""
int trail[8];
int down(int n) {{
    if (n == 0) return 0;
    trail[n & 7] = trail[(n + 1) & 7] * 31 + n;
    trail[(n + 3) & 7] = trail[(n + 5) & 7] ^ (n << 2);
    trail[(n + 2) & 7] = trail[(n + 6) & 7] + trail[n & 7] / 3;
    trail[(n + 4) & 7] = trail[(n + 7) & 7] - trail[(n + 1) & 7] % 5;
    return down(n - 1) + 1;
}}
int main() {{ return down({DEEP_CALLS}); }}
"""


@pytest.mark.parametrize("selection", [MODE_PER_CALL, MODE_PER_EXECUTION])
def test_variant_dispatch_deep_recursion_matches_reference(selection):
    """A dispatched guest call costs one Python frame, as on the reference
    VM: 600 nested calls stay well inside the interpreter's recursion limit."""
    exe = VariantBuilder(lambda: compile_source(DEEP, "deep"), preserve=("main",)).build()
    families = {family: 1.0 for family in exe.families}
    vms = [cls(exe, variant_selector=VariantSelector(families, seed=3, mode=selection),
               dispatch_tax=4) for cls in (VM, ReferenceVM)]
    got, want = (_run_main(vm) for vm in vms)
    assert got == want
    assert got[0] == DEEP_CALLS
    fast, ref = vms
    assert fast.memory == ref.memory
    assert fast.variant_selector.calls == ref.variant_selector.calls


# -- traps inside a segment, near the step limit -------------------------------------

TRAPS = {
    "null-load": "int main() { int *p = (int*)0; int a = 1; int b = a + 2; return *p + b; }",
    "div-by-zero": "int z; int main() { int a = 7; int b = a * 3; return b / z + a; }",
    "const-store": (
        "const char T[4] = \"abc\"; int main() { char *p = (char*)T; int a = 2;"
        " p[a] = 9; return a + 1; }"
    ),
    "wild-store": "int main() { long *p = (long*)4194300; int a = 3; p[0] = a; return a; }",
    "loop-then-oob": (
        "int A[8]; int main() { int s = 0; int i = 0;"
        " while (i < 40) { s = s + A[i * 65536]; i = i + 1; } return s; }"
    ),
}


def _main_image(source: str, opt_level: int):
    module = compile_source(source, "trap")
    optimize(module, opt_level)
    return link([lower_module(module)])


def _run_main(vm: VM) -> tuple:
    try:
        result = vm.run("main")
        outcome = (result.exit_code, result.stdout, result.cycles, result.steps, result.trap)
    except ReproError as error:
        outcome = (type(error).__name__, str(error))
    return outcome + (vm.cycles, vm.steps, vm.stack_ptr, vm.heap_ptr)


def assert_main_same(exe, **vm_kwargs) -> tuple:
    fast, ref = VM(exe, **vm_kwargs), ReferenceVM(exe, **vm_kwargs)
    got, want = _run_main(fast), _run_main(ref)
    assert got == want
    assert fast.memory == ref.memory
    return got


@pytest.mark.parametrize("program", sorted(TRAPS))
@pytest.mark.parametrize("opt_level", [0, 2])
def test_trap_inside_segment_and_limit_around_it(program, opt_level):
    """The trap's own step is the last; one limit below it, the limit wins."""
    exe = _main_image(TRAPS[program], opt_level)
    full = assert_main_same(exe)
    assert full[4] == "div-by-zero" or full[4] == "bad-memory"
    steps = full[3]
    for limit in range(max(1, steps - 6), steps + 2):
        outcome = assert_main_same(exe, max_steps=limit)
        if limit < steps:
            assert outcome[0] == "VMError"
        else:
            assert outcome[4] == full[4]


# -- generated straight-line arithmetic ------------------------------------------------

WIDTHS = (1, 8, 16, 32, 64)
BINARY = ("add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
          "and", "or", "xor", "shl", "lshr", "ashr")
PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")


@st.composite
def arithmetic(draw):
    """An IR function folding random ops over two narrowed arguments."""
    bits = draw(st.sampled_from(WIDTHS))
    ty = f"i{bits}"
    lines = ["define i64 @f(i64 %a, i64 %b) {", "entry:"]
    if bits < 64:
        lines += [f"  %v0 = trunc i64 %a to {ty}", f"  %v1 = trunc i64 %b to {ty}"]
    else:
        lines += ["  %v0 = add i64 %a, 0", "  %v1 = add i64 %b, 0"]
    values = ["%v0", "%v1"]
    small = st.integers(0, (1 << bits) - 1) | st.integers(0, bits + 1)
    for i in range(draw(st.integers(1, 8))):
        lhs = draw(st.sampled_from(values))
        rhs = draw(st.sampled_from(values) | small.map(str))
        name = f"%t{i}"
        kind = draw(st.sampled_from(("bin", "bin", "cmp", "cast")))
        if kind == "bin":
            lines.append(f"  {name} = {draw(st.sampled_from(BINARY))} {ty} {lhs}, {rhs}")
        elif kind == "cmp":
            pred = draw(st.sampled_from(PREDICATES))
            ext = draw(st.sampled_from(("zext", "sext"))) if bits > 1 else None
            lines.append(f"  %c{i} = icmp {pred} {ty} {lhs}, {rhs}")
            other = draw(st.sampled_from(values))
            lines.append(f"  %s{i} = select i1 %c{i}, {ty} {lhs}, {ty} {other}")
            if ext:
                lines.append(f"  %e{i} = {ext} i1 %c{i} to {ty}")
                lines.append(f"  {name} = add {ty} %s{i}, %e{i}")
            else:
                lines.append(f"  {name} = xor {ty} %s{i}, %c{i}")
        else:
            wide = draw(st.sampled_from([w for w in WIDTHS if w > bits] or [64]))
            if wide > bits:
                ext = draw(st.sampled_from(("zext", "sext")))
                lines.append(f"  %w{i} = {ext} {ty} {lhs} to i{wide}")
                lines.append(f"  {name} = trunc i{wide} %w{i} to {ty}")
            else:
                lines.append(f"  {name} = add {ty} {lhs}, 1")
        values.append(name)
    last = values[-1]
    if bits < 64:
        lines.append(f"  %r = sext {ty} {last} to i64")
        last = "%r"
    lines.append(f"  switch i64 {last}, label %out [ i64 0, label %zero i64 -1, label %ones ]")
    lines += ["zero:", "  ret i64 1000", "ones:", "  ret i64 2000",
              "out:", f"  ret i64 {last}", "}"]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(arithmetic(), st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))
def test_generated_arithmetic_matches_reference(source, a, b):
    exe = link([lower_module(parse_module(source))])
    fast, ref = VM(exe), ReferenceVM(exe)
    got = _run_args(fast, (a, b))
    want = _run_args(ref, (a, b))
    assert got == want, source


def _run_args(vm: VM, args) -> tuple:
    result = vm.run("f", args)
    return (result.exit_code, result.cycles, result.steps, result.trap)

"""The differential harness must catch every planted failure mode and
attribute it to the offending pass."""

import pytest

from repro.frontend import compile_source
from repro.selffuzz import (
    STATUS_DIVERGENCE,
    STATUS_OK,
    STATUS_PASS_CRASH,
    STATUS_SANITIZER,
    STATUS_VERIFIER,
    STATUS_VM_DIVERGENCE,
    ProgramGenerator,
    SelfFuzzCampaign,
    SelfFuzzHarness,
    bisect_divergence,
    run_o2_with_attribution,
)
from repro.selffuzz.harness import Verdict, instrument_blocks, o0_behaviour, run_module
from repro.vm import interpreter

from tests.selffuzz.planted import (
    CrashingPass,
    MiscompileAdd,
    ProbeEater,
    TerminatorThief,
    pipeline_with,
)

SOURCE = """
int helper(int a, int b)
{
    int x = a + b;
    int y = a + b;
    return x + y;
}

int main(void)
{
    int r = helper(3, 4);
    printf("%d\\n", r);
    return r & 127;
}
"""


def first_failure(harness, seed=7, budget=20):
    gen = ProgramGenerator(seed)
    for index in range(budget):
        verdict = harness.check_program(gen.generate(index))
        if not verdict.ok:
            return verdict
    raise AssertionError("planted bug never fired")


class TestCleanPipeline:
    def test_handwritten_program_is_ok(self):
        verdict = SelfFuzzHarness().check_source(SOURCE, "hand")
        assert verdict.status == STATUS_OK

    def test_generated_programs_are_ok(self):
        harness = SelfFuzzHarness()
        gen = ProgramGenerator(0)
        for index in range(5):
            verdict = harness.check_program(gen.generate(index))
            assert verdict.status == STATUS_OK, verdict.detail


class TestPlantedDivergence:
    def test_detected_and_attributed(self):
        harness = SelfFuzzHarness(pipeline=pipeline_with(MiscompileAdd))
        verdict = first_failure(harness)
        assert verdict.status == STATUS_DIVERGENCE
        assert verdict.pass_name == "miscompile-add"
        assert verdict.bisect is not None
        assert verdict.mismatches

    def test_handwritten_divergence(self):
        harness = SelfFuzzHarness(pipeline=pipeline_with(MiscompileAdd))
        verdict = harness.check_source(SOURCE, "hand")
        assert verdict.status == STATUS_DIVERGENCE
        assert verdict.pass_name == "miscompile-add"


class TestPlantedSanitizerBug:
    def test_probe_eater_caught_by_sanitizer_leg(self):
        harness = SelfFuzzHarness(pipeline=pipeline_with(ProbeEater))
        verdict = harness.check_source(SOURCE, "hand")
        assert verdict.status == STATUS_SANITIZER
        assert verdict.pass_name == "probe-eater"

    def test_probe_eater_invisible_without_sanitizer(self):
        harness = SelfFuzzHarness(
            pipeline=pipeline_with(ProbeEater), sanitize=False
        )
        verdict = harness.check_source(SOURCE, "hand")
        assert verdict.status == STATUS_OK


class TestPlantedCrashAndVerifier:
    def test_crash_attributed(self):
        harness = SelfFuzzHarness(pipeline=pipeline_with(CrashingPass))
        verdict = harness.check_source(SOURCE, "hand")
        assert verdict.status == STATUS_PASS_CRASH
        assert verdict.pass_name == "crashing-pass"
        assert "planted crash" in verdict.detail

    def test_verifier_breakage_attributed(self):
        harness = SelfFuzzHarness(pipeline=pipeline_with(TerminatorThief))
        verdict = harness.check_source(SOURCE, "hand")
        assert verdict.status == STATUS_VERIFIER
        assert verdict.pass_name == "terminator-thief"


class TestPlantedVMBug:
    """A fast-path translation that disagrees with the reference VM is a
    ``vm-divergence``, never an -O0/backend crash or an optimizer pass."""

    @staticmethod
    def plant(monkeypatch, broken, where=lambda lf: lf.name == "helper"):
        """Make the translation of every linked function *where* picks *broken*."""
        real = interpreter.translate

        def translate(exe, index, key):
            fn = real(exe, index, key)
            return broken(fn) if where(exe.functions[index]) else fn

        monkeypatch.setattr(interpreter, "translate", translate)

    def test_wrong_result(self, monkeypatch):
        self.plant(monkeypatch, lambda fn: lambda vm, *args: fn(vm, *args) + 1)
        verdict = SelfFuzzHarness().check_source(SOURCE, "hand")
        assert verdict.status == STATUS_VM_DIVERGENCE
        assert "reference" in verdict.detail

    def test_crashing_translation(self, monkeypatch):
        def broken(fn):
            def crash(vm, *args):
                raise NameError("name 'r9' is not defined")
            return crash

        self.plant(monkeypatch, broken)
        verdict = SelfFuzzHarness().check_source(SOURCE, "hand")
        assert verdict.status == STATUS_VM_DIVERGENCE
        assert "NameError" in verdict.detail

    def test_not_bisected_onto_a_pass(self, monkeypatch):
        # Only a build with ``helper`` inlined into ``main`` runs wrongly,
        # so -O0 is clean and the bisection's prefix builds hit the bug.
        def inlined(lf):
            return lf.name == "main" and all(inst.sym != "helper" for inst in lf.mf.insts)

        self.plant(monkeypatch, lambda fn: lambda vm, *args: fn(vm, *args) + 1, inlined)
        assert o0_behaviour(compile_source(SOURCE, "hand")).exit_code == 14
        verdict = Verdict(name="hand", status=STATUS_DIVERGENCE, source=SOURCE)
        assert SelfFuzzHarness().attribute_divergence(verdict) is None
        assert verdict.status == STATUS_VM_DIVERGENCE
        assert verdict.pass_name is None


class TestReplayMachinery:
    def test_schedule_is_deterministic(self):
        module_a = compile_source(SOURCE, "a")
        module_b = compile_source(SOURCE, "b")
        sched_a = run_o2_with_attribution(module_a)
        sched_b = run_o2_with_attribution(module_b)
        assert [(s.name, s.iteration, s.changed) for s in sched_a] == \
               [(s.name, s.iteration, s.changed) for s in sched_b]

    def test_bisect_returns_none_when_clean(self):
        result = bisect_divergence(
            lambda: compile_source(SOURCE, "clean"),
            lambda module: False,
        )
        assert result is None

    def test_instrumented_module_runs_probe_free(self):
        module = compile_source(SOURCE, "probed")
        plain = o0_behaviour(module)
        probes = instrument_blocks(module)
        assert probes > 0
        # Probes lower to machine probe ops the VM ignores without a
        # runtime: behaviour must be unchanged.
        assert run_module(module) == plain


class TestCampaign:
    def test_report_tallies_by_style_and_pass(self):
        campaign = SelfFuzzCampaign(
            seed=7, count=6,
            harness=SelfFuzzHarness(pipeline=pipeline_with(MiscompileAdd)),
        )
        report = campaign.run()
        assert sum(c["programs"] for c in report.styles.values()) == 6
        if report.failures:
            assert report.passes.get("miscompile-add")
            assert not report.ok
        data = report.to_dict()
        assert data["seed"] == 7 and data["count"] == 6

    def test_clean_campaign_is_ok(self):
        report = SelfFuzzCampaign(seed=0, count=3).run()
        assert report.ok
        assert report.to_dict()["failures"] == []

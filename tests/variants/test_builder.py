"""The variant builder: merged images, dispatch wiring, de-instrumentation."""

import pytest

from repro.core.engine import Odin
from repro.errors import LinkError
from repro.linker.variants import VariantExecutable, link_variants
from repro.programs.registry import get_program
from repro.variants.builder import VariantBuilder
from repro.variants.dispatch import VariantSelector
from repro.fuzz.executor import ENTRY, PRESERVED, run_input
from repro.variants.spec import FAMILY_CLEAN, FAMILY_COVERAGE, FAMILY_SANITIZED
from repro.vm.interpreter import VM, VMError


class TestMergedImage:
    def test_all_families_linked(self, json_builder):
        exe = json_builder.executable
        assert isinstance(exe, VariantExecutable)
        assert exe.families == [FAMILY_CLEAN, FAMILY_COVERAGE, FAMILY_SANITIZED]
        assert exe.default_family == FAMILY_CLEAN

    def test_default_family_occupies_offset_zero(self, json_builder):
        exe = json_builder.executable
        clean_exe = json_builder.build_for(FAMILY_CLEAN).engine.executable
        n = len(clean_exe.functions)
        assert exe.family_of[:n] == [FAMILY_CLEAN] * n
        assert [f.name for f in exe.functions[:n]] == [
            f.name for f in clean_exe.functions
        ]
        assert exe.entry_points == clean_exe.entry_points

    def test_dispatch_table_covers_every_family(self, json_builder):
        exe = json_builder.executable
        # Every function of every family is reachable through the table.
        for name, variants in exe.variant_index.items():
            for family, index in variants.items():
                assert exe.functions[index].name == name
                assert exe.family_of[index] == family

    def test_dispatch_falls_back_for_missing_family(self, json_builder):
        exe = json_builder.executable
        # O2 inlines `expect` out of the clean build; the instrumented
        # families keep it.  Dispatching it to clean stays in-family.
        assert "expect" in exe.variant_index
        assert FAMILY_CLEAN not in exe.variant_index["expect"]
        idx = exe.variant_index["expect"][FAMILY_COVERAGE]
        assert exe.dispatch(idx, FAMILY_CLEAN) == idx
        assert exe.dispatch(idx, "no-such-family") == idx

    def test_probe_counts_per_family(self, json_builder):
        counts = json_builder.probe_counts()
        assert counts[FAMILY_CLEAN] == 0
        assert counts[FAMILY_COVERAGE] > 0
        assert counts[FAMILY_SANITIZED] > counts[FAMILY_COVERAGE]

    def test_canonical_bytes_include_dispatch_table(self, json_builder):
        blob = json_builder.executable.canonical_bytes().decode()
        assert "variant-families clean,coverage,sanitized" in blob
        assert "variant parse_value" in blob


class TestExecution:
    def test_sanitized_dispatch_executes_different_code(
        self, json_builder, json_program
    ):
        data = json_program.seeds(0)[0]
        clean = run_input(
            json_builder.make_vm(
                selector=VariantSelector({FAMILY_CLEAN: 1.0})
            ),
            data,
        )
        sanitized = run_input(
            json_builder.make_vm(
                selector=VariantSelector({FAMILY_SANITIZED: 1.0})
            ),
            data,
        )
        # Same behaviour, different instrumentation density.
        assert sanitized.exit_code == clean.exit_code
        assert sanitized.stdout == clean.stdout
        assert sanitized.cycles > clean.cycles

    def test_dispatch_tax_charges_per_call(self, json_builder, json_program):
        data = json_program.seeds(0)[0]
        selector = VariantSelector({FAMILY_CLEAN: 1.0})
        base = run_input(json_builder.make_vm(selector=selector), data)
        taxed = run_input(
            json_builder.make_vm(
                selector=VariantSelector({FAMILY_CLEAN: 1.0}),
                dispatch_tax=5,
            ),
            data,
        )
        assert taxed.cycles > base.cycles
        assert (taxed.cycles - base.cycles) % 5 == 0

    def test_selector_requires_variant_executable(self, json_builder):
        clean_exe = json_builder.build_for(FAMILY_CLEAN).engine.executable
        with pytest.raises(VMError):
            VM(clean_exe, variant_selector=VariantSelector({"clean": 1.0}))


class TestDeinstrumentation:
    @pytest.fixture()
    def builder(self, json_program):
        fresh = VariantBuilder(json_program.compile, preserve=PRESERVED)
        fresh.build()
        return fresh

    def test_flips_probes_and_relinks(self, builder):
        before = builder.probe_counts()
        relinks = builder.relinks
        flipped = builder.deinstrument_symbol("parse_object")
        assert flipped and all(n > 0 for n in flipped.values())
        assert FAMILY_COVERAGE in flipped and FAMILY_SANITIZED in flipped
        assert builder.relinks == relinks + 1
        assert builder.deinstrumented == ["parse_object"]
        # The merged image's instrumented variants of the symbol carry
        # fewer live probes now.
        for family, n in flipped.items():
            live = sum(
                1
                for tool in builder.build_for(family).tools
                for probe in tool.probes.values()
                if probe.enabled
            )
            assert live == before[family] - n

    def test_recompile_observable_in_span_tree(self, builder):
        builder.deinstrument_symbol("parse_object")
        spans = builder.tracer.roots()
        deinst = [
            s for root in spans for s in root.find_all("partisan.deinstrument")
        ]
        assert len(deinst) == 1
        assert deinst[0].args["symbol"] == "parse_object"
        # The fragment-level rebuilds nest under the de-instrument span.
        assert deinst[0].find("rebuild") is not None

    def test_unknown_symbol_is_a_noop(self, builder):
        relinks = builder.relinks
        assert builder.deinstrument_symbol("no_such_fn") == {}
        assert builder.relinks == relinks
        assert builder.deinstrumented == []

    def test_behaviour_preserved_after_deinstrumentation(
        self, builder, json_program
    ):
        data = json_program.seeds(0)[0]
        sanitized_mix = {FAMILY_SANITIZED: 1.0}
        before = run_input(
            builder.make_vm(selector=VariantSelector(sanitized_mix)), data
        )
        builder.deinstrument_symbol("parse_object")
        after = run_input(
            builder.make_vm(selector=VariantSelector(sanitized_mix)), data
        )
        assert after.exit_code == before.exit_code
        assert after.stdout == before.stdout
        assert after.cycles < before.cycles  # checks really came out


class TestLinkVariantsValidation:
    def test_needs_at_least_one_family(self):
        with pytest.raises(LinkError):
            link_variants({})

    def test_default_must_have_an_image(self, json_builder):
        clean = json_builder.build_for(FAMILY_CLEAN).engine.executable
        with pytest.raises(LinkError):
            link_variants({"clean": clean}, default="sanitized")

    def test_rejects_diverging_data_segments(self):
        # Two different programs have different data segments; merging
        # them as "families" must be refused.
        a = Odin(get_program("json").compile(), preserve=PRESERVED)
        a.initial_build()
        b = Odin(get_program("lcms").compile(), preserve=PRESERVED)
        b.initial_build()
        with pytest.raises(LinkError):
            link_variants({"clean": a.executable, "other": b.executable})

"""Guided UBSan placement: range analysis prunes provably-safe probes."""

from repro.check import generate_schedules, rebuild_replay
from repro.core.engine import Odin
from repro.instrument.ubsan import UBSanTool
from repro.programs.registry import get_program

PRESERVED = ("main", "run_input")
TARGET = "lcms"


def make_tool(guided):
    program = get_program(TARGET)
    engine = Odin(program.compile(), preserve=PRESERVED)
    tool = UBSanTool(engine)
    count = tool.add_all_overflow_probes(guided=guided)
    return tool, count


class TestGuidedPlacement:
    def test_guided_emits_fewer_probes(self):
        _, n_all = make_tool(guided=False)
        tool, n_guided = make_tool(guided=True)
        assert 0 < n_guided < n_all
        assert tool.pruned > 0
        assert n_guided + tool.pruned == n_all

    def test_unguided_mode_prunes_nothing(self):
        tool, _ = make_tool(guided=False)
        assert tool.pruned == 0

    def test_guided_build_executes_seeds(self):
        program = get_program(TARGET)
        tool, _ = make_tool(guided=True)
        tool.build()
        vm = tool.make_vm()
        data = program.seeds()[0]
        addr = vm.alloc(max(len(data), 1) + 1)
        vm.write_bytes(addr, data)
        result = vm.run("run_input", (addr, len(data)), reset=False)
        # The instrumented build runs to completion (a ubsan trap would
        # be a real overflow the guided analysis rightly kept a probe on).
        assert result.trap in (None, "ubsan")

    def test_target_still_passes_differential_check(self):
        """The acceptance pairing: guided UBSan saves probes on a program
        on which `repro check` (the rebuild oracle) still passes."""
        program = get_program(TARGET)
        replay = rebuild_replay(program, max_inputs=2)
        report = replay.run(generate_schedules(2, 11, max_steps=4))
        assert report.ok, report.failures

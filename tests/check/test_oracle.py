"""The differential oracle: equivalence holds, and divergence is caught."""

from repro.check import DifferentialOracle, generate_schedules, rebuild_replay
from repro.core.engine import Odin
from repro.fuzz.executor import PRESERVED
from repro.instrument.coverage import OdinCov
from repro.linker.linker import link
from repro.programs.registry import get_program


def make_built_engine(program, **kwargs):
    engine = Odin(program.compile(), preserve=PRESERVED, **kwargs)
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    tool.build()
    return engine, tool


class TestOracle:
    def test_incremental_equivalent_to_scratch(self):
        program = get_program("libjpeg")
        replay = rebuild_replay(program, max_inputs=2)
        report = replay.run(generate_schedules(2, 11, max_steps=4))
        assert report.ok, report.failures
        assert report.comparisons >= 1
        assert "ok" in report.summary()

    def test_service_path_equivalent(self):
        """Batching, content cache and link cache preserve equivalence."""
        program = get_program("lcms")
        replay = rebuild_replay(
            program, service=True, workers=2, worker_mode="thread",
            max_inputs=2,
        )
        report = replay.run(generate_schedules(1, 13, max_steps=4))
        assert report.ok, report.failures

    def test_oracle_detects_tampered_object(self):
        """Mutation sanity: a one-cycle change to one cached object must
        surface in all three equivalence layers."""
        program = get_program("lcms")
        oracle = DifferentialOracle(program, max_inputs=2)
        engine, _tool = make_built_engine(program)
        victim = next(
            fid for fid in sorted(engine.cache) if engine.cache[fid].functions
        )
        fn = next(iter(engine.cache[victim].functions.values()))
        fn.insts[0].cost += 1
        engine.executable = link(
            [engine.cache[f.id] for f in engine.fragdef.fragments]
        )
        mismatches = oracle.compare_to_reference(engine)
        assert any("object bytes differ" in m for m in mismatches)
        assert any("linked image differs" in m for m in mismatches)
        assert any("cycles" in m for m in mismatches)

    def test_no_op_steps_skip_reference_builds(self):
        """Enable steps with nothing disabled are no-ops: not compared."""
        program = get_program("lcms")
        replay = rebuild_replay(program, max_inputs=1)
        from repro.check.schedules import ProbeSchedule, ScheduleStep

        schedule = ProbeSchedule(0, 99, (ScheduleStep("enable", 2, 0),))
        outcome = replay.replay(schedule)
        assert outcome.ok
        assert outcome.comparisons == 0


class TestEquivalenceHooks:
    def test_record_fingerprints_on_rebuild_report(self):
        program = get_program("lcms")
        engine, _tool = make_built_engine(program, record_fingerprints=True)
        report = engine.history[-1]
        assert set(report.object_fingerprints) == set(report.fragment_ids)
        assert report.object_fingerprints == engine.object_fingerprints()

    def test_executable_fingerprint_stable_and_sensitive(self):
        program = get_program("lcms")
        engine_a, tool_a = make_built_engine(program)
        engine_b, tool_b = make_built_engine(program)
        assert engine_a.executable_fingerprint() == engine_b.executable_fingerprint()
        # Disabling a probe changes the generated code, hence the digest.
        engine_b.manager.disable(tool_b.probes[min(tool_b.probes)])
        engine_b.rebuild()
        assert engine_a.executable_fingerprint() != engine_b.executable_fingerprint()

    def test_unbuilt_engine_has_no_fingerprint(self):
        program = get_program("lcms")
        engine = Odin(program.compile(), preserve=PRESERVED)
        assert engine.executable_fingerprint() is None

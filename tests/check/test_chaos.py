"""Chaos harness tests: seeded generation + the acceptance scenario.

The acceptance scenario is the ISSUE's headline run: a schedule that
kills a worker mid-batch, corrupts a persistent-cache blob, and expires
one job's deadline must still leave every non-shed client answered and
the final executable byte-equivalent to a fault-free scratch build.
"""

import pytest

from repro.check.oracle import Outcome, Report
from repro.check.schedules import (
    FAULT_CACHE_CORRUPT,
    FAULT_DEADLINE_EXPIRE,
    FAULT_WORKER_CRASH,
    SERVICE_FAULT_KINDS,
    STEP_DISABLE,
    STEP_REMOVE,
    STEP_ENABLE,
    STEP_PRUNE,
    FaultEvent,
    ProbeSchedule,
    ScheduleStep,
    generate_chaos_schedules,
)
from repro.check.subjects import CHAOS_LAYOUT, chaos_replay
from repro.programs.registry import get_program
from repro.service.workers import MODE_PROCESS


class TestGeneration:
    def test_pure_function_of_arguments(self):
        a = generate_chaos_schedules(4, 9, min_faults=1, max_faults=3)
        b = generate_chaos_schedules(4, 9, min_faults=1, max_faults=3)
        assert a == b

    def test_seed_changes_schedules(self):
        a = generate_chaos_schedules(4, 9)
        b = generate_chaos_schedules(4, 10)
        assert a != b

    def test_fault_plans_respect_bounds(self):
        for schedule in generate_chaos_schedules(8, 3, min_faults=2, max_faults=3):
            assert 2 <= len(schedule.faults) <= 3
            steps = len(schedule.steps)
            for fault in schedule.faults:
                assert 0 <= fault.step < steps
                assert fault.kind in SERVICE_FAULT_KINDS

    def test_prune_steps_excluded_by_default(self):
        for schedule in generate_chaos_schedules(8, 3):
            kinds = {step.kind for step in schedule.steps}
            assert STEP_PRUNE not in kinds

    def test_fault_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0, "meteor-strike")
        with pytest.raises(ValueError, match="step"):
            FaultEvent(-1, FAULT_WORKER_CRASH)

    def test_fault_count_validation(self):
        with pytest.raises(ValueError, match="min_faults"):
            generate_chaos_schedules(1, 0, min_faults=3, max_faults=1)


class TestReport:
    def _schedule(self):
        steps = (ScheduleStep(STEP_DISABLE, count=1, inputs=0),)
        return ProbeSchedule(7, 3, steps, (FaultEvent(0, FAULT_WORKER_CRASH),))

    def test_failures_and_summary(self):
        report = Report("demo", CHAOS_LAYOUT, {"program": "demo", "seed": 3})
        good = Outcome(self._schedule())
        good.counters = {"injected": {FAULT_WORKER_CRASH: 1}, "worker_restarts": 1}
        bad = Outcome(self._schedule())
        bad.mismatches.append("object bytes differ for frag x")
        report.outcomes = [good, bad]
        assert not report.ok
        assert report.faults_injected == 1
        assert report.failures == ["chaos #7: object bytes differ for frag x"]
        assert "1 FAILURES" in report.summary()
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["outcomes"][0]["worker_restarts"] == 1


class TestAcceptance:
    def test_crash_corrupt_and_deadline_schedule_stays_equivalent(self):
        """Worker crash + cache corruption + expired deadline in one run.

        Every non-shed client must get a reply, the crash must force at
        least one worker restart, the corrupted blob must be quarantined
        (a miss, never an exception), and the final probe state must be
        byte- and behaviour-equivalent to a fault-free scratch build.
        """
        # The crash fault arms before step 0, which must therefore be a
        # step that actually compiles: removes change the compiled-in
        # site set and force real worker batches, while pure toggles are
        # serviced by the tiered fast path without touching the pool.
        steps = (
            ScheduleStep(STEP_REMOVE, count=2, inputs=1),
            ScheduleStep(STEP_DISABLE, count=2, inputs=1),
            ScheduleStep(STEP_ENABLE, count=1, inputs=1),
        )
        schedule = ProbeSchedule(
            0,
            77,
            steps,
            (
                FaultEvent(0, FAULT_WORKER_CRASH),
                FaultEvent(1, FAULT_CACHE_CORRUPT),
                FaultEvent(2, FAULT_DEADLINE_EXPIRE),
            ),
        )
        replay = chaos_replay(
            get_program("lcms"), workers=2, worker_mode=MODE_PROCESS, max_inputs=2
        )
        outcome = replay.replay(schedule)
        counters = outcome.counters
        assert outcome.error is None
        assert outcome.mismatches == []
        assert outcome.ok
        # Every fault actually fired ...
        assert counters["injected"] == {
            FAULT_WORKER_CRASH: 1,
            FAULT_CACHE_CORRUPT: 1,
            FAULT_DEADLINE_EXPIRE: 1,
        }
        assert counters["unfired_worker_faults"] == 0
        # ... and the service degraded without lying: all three probe
        # steps were answered, the expired job was shed (not compiled),
        # the crash forced a pool restart, and the corrupt blob was
        # quarantined instead of served or raised.
        assert counters["replies"] == len(steps)
        assert counters["shed"] == 1
        assert counters["worker_restarts"] >= 1
        assert counters["quarantined"] >= 1

    def test_prune_steps_replay_as_covered_removals(self):
        """A prune step in a chaos schedule removes the covered probes
        through the service client instead of failing the schedule."""
        schedules = generate_chaos_schedules(2, 1, include_prune=True)
        assert any(
            step.kind == STEP_PRUNE for s in schedules for step in s.steps
        )
        report = chaos_replay(
            get_program("lcms"), workers=1, worker_mode="thread", max_inputs=2
        ).run(schedules, seed=1)
        assert report.ok, report.failures
        pruned = [
            step for o in report.outcomes for step in o.steps
            if step.kind == STEP_PRUNE
        ]
        assert any(step.applied for step in pruned)

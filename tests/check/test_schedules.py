"""Schedule generation: determinism, bounds, and target picking."""

import pytest

from repro.check.schedules import (
    STEP_KINDS,
    STEP_PRUNE,
    ProbeSchedule,
    ScheduleStep,
    generate_chaos_schedules,
    generate_cluster_chaos_schedules,
    generate_schedules,
    pick_targets,
)
from repro.utils.rng import DeterministicRNG


class TestGeneration:
    def test_same_seed_same_schedules(self):
        assert generate_schedules(10, 42) == generate_schedules(10, 42)

    def test_different_seed_different_schedules(self):
        assert generate_schedules(10, 1) != generate_schedules(10, 2)

    def test_bounds_respected(self):
        schedules = generate_schedules(
            20, 7, min_steps=2, max_steps=4,
            max_probes_per_step=3, max_inputs_per_step=2,
        )
        assert len(schedules) == 20
        for schedule in schedules:
            assert 2 <= len(schedule.steps) <= 4
            for step in schedule.steps:
                assert step.kind in STEP_KINDS
                assert 1 <= step.count <= 3
                assert 0 <= step.inputs <= 2

    def test_include_prune_false(self):
        schedules = generate_schedules(20, 3, include_prune=False)
        assert all(
            step.kind != STEP_PRUNE
            for schedule in schedules
            for step in schedule.steps
        )

    def test_replay_seeds_are_distinct(self):
        schedules = generate_schedules(10, 5)
        assert len({s.seed for s in schedules}) == 10

    def test_describe(self):
        schedule = ProbeSchedule(0, 1, (ScheduleStep("disable", 2, 1),))
        assert "disable 2" in schedule.describe()

    def test_invalid_step_kind_rejected(self):
        with pytest.raises(ValueError):
            ScheduleStep("explode", 1, 1)


class TestPickTargets:
    def test_deterministic_and_distinct(self):
        eligible = list(range(20))
        a = pick_targets(DeterministicRNG(9), eligible, 5)
        b = pick_targets(DeterministicRNG(9), eligible, 5)
        assert a == b
        assert len(set(a)) == 5

    def test_bounded_by_eligible(self):
        assert len(pick_targets(DeterministicRNG(1), [1, 2], 5)) == 2
        assert pick_targets(DeterministicRNG(1), [], 3) == []


def _steps(schedule):
    return tuple((s.kind, s.count, s.inputs) for s in schedule.steps)


def _faults(schedule):
    return tuple((f.step, f.kind) for f in schedule.faults)


class TestGolden:
    """Exact generator output, recorded before the generators were
    merged onto one weighted-pick helper: any change to how the RNG is
    consumed shows up here, not as a silently different campaign."""

    def test_generate_schedules(self):
        assert [(s.schedule_id, s.seed, _steps(s))
                for s in generate_schedules(2, 1)] == [
            (0, 582057716445789124, (
                ("disable", 4, 3), ("remove", 4, 1), ("disable", 4, 0),
                ("enable", 4, 0), ("prune", 4, 2))),
            (1, 942879118058144418, (
                ("disable", 1, 0), ("prune", 1, 3), ("prune", 2, 3),
                ("prune", 1, 1), ("prune", 4, 3))),
        ]
        assert [(s.schedule_id, s.seed, _steps(s))
                for s in generate_schedules(2, 7)] == [
            (0, 3641603982383516983, (
                ("disable", 1, 2), ("remove", 1, 1), ("disable", 1, 3))),
            (1, 644302575743358107, (
                ("disable", 4, 0), ("remove", 1, 1), ("prune", 1, 3),
                ("disable", 2, 0))),
        ]

    def test_generate_chaos_schedules(self):
        assert [(s.schedule_id, s.seed, _faults(s), _steps(s))
                for s in generate_chaos_schedules(2, 1)] == [
            (0, 582057716445789124,
             ((1, "deadline-expire"), (2, "cache-corrupt"),
              (3, "dispatcher-restart")),
             (("disable", 4, 3), ("remove", 4, 1), ("disable", 4, 0),
              ("enable", 4, 0), ("remove", 3, 1))),
            (1, 282142854078468499,
             ((0, "worker-hang"), (1, "worker-crash"),
              (2, "dispatcher-restart")),
             (("disable", 1, 3), ("disable", 4, 0), ("remove", 2, 3))),
        ]
        assert [(s.schedule_id, s.seed, _faults(s), _steps(s))
                for s in generate_chaos_schedules(2, 7)] == [
            (0, 3641603982383516983, ((2, "cache-corrupt"),),
             (("disable", 1, 2), ("remove", 1, 1), ("disable", 1, 3))),
            (1, 644302575743358107, ((3, "dispatcher-restart"),),
             (("disable", 4, 0), ("remove", 1, 1), ("remove", 1, 3),
              ("disable", 2, 0))),
        ]

    def test_generate_cluster_chaos_schedules(self):
        def flat(schedules):
            return [
                (s.schedule_id, s.seed, _faults(s),
                 tuple((t.schedule_id, t.seed, _steps(t)) for t in s.tenants))
                for s in schedules
            ]

        assert flat(generate_cluster_chaos_schedules(2, 2, tenants=2)) == [
            (0, 2, ((0, "router-partition"),), (
                (0, 2683370006907499390, (
                    ("disable", 2, 2), ("enable", 3, 2), ("disable", 4, 3),
                    ("remove", 1, 2))),
                (1, 3561002699692836821, (
                    ("disable", 4, 1), ("disable", 3, 3), ("enable", 3, 3),
                    ("disable", 3, 1), ("remove", 1, 3))))),
            (1, 2, ((0, "shard-kill"), (1, "shard-hang")), (
                (0, 3712284499738031267, (
                    ("enable", 1, 3), ("disable", 4, 0), ("remove", 2, 2),
                    ("disable", 4, 1))),
                (1, 2189540246411566126, (
                    ("enable", 3, 3), ("remove", 2, 0), ("remove", 3, 1),
                    ("disable", 2, 3))))),
        ]
        assert flat(generate_cluster_chaos_schedules(2, 5, tenants=2)) == [
            (0, 5, ((2, "shard-kill"),), (
                (0, 3836540194542998598, (
                    ("disable", 2, 2), ("enable", 1, 2), ("enable", 4, 3),
                    ("enable", 4, 2))),
                (1, 3518552057031366823, (
                    ("disable", 3, 1), ("enable", 3, 2), ("disable", 4, 2),
                    ("disable", 1, 3), ("remove", 2, 1), ("disable", 4, 0))))),
            (1, 5, ((2, "shard-kill"),), (
                (0, 1326132064007308747, (
                    ("enable", 3, 1), ("enable", 3, 2), ("remove", 3, 0))),
                (1, 926658247183344832, (
                    ("remove", 1, 0), ("remove", 4, 3), ("enable", 1, 2))))),
        ]

"""Cluster chaos: schedule generation determinism + a seeded sweep."""

import json

import pytest

from repro.check.schedules import (
    CLUSTER_FAULT_KINDS,
    FaultEvent,
    generate_cluster_chaos_schedules,
)
from repro.check.subjects import CLUSTER_LAYOUT, cluster_replay
from repro.check.oracle import Outcome
from repro.programs.registry import get_program


class TestGeneration:
    def test_generation_is_deterministic(self):
        a = generate_cluster_chaos_schedules(3, 11, tenants=6)
        b = generate_cluster_chaos_schedules(3, 11, tenants=6)
        assert [(s.schedule_id, s.faults, s.rounds) for s in a] == [
            (s.schedule_id, s.faults, s.rounds) for s in b
        ]

    def test_different_seeds_differ(self):
        a = generate_cluster_chaos_schedules(4, 1, tenants=6)
        b = generate_cluster_chaos_schedules(4, 2, tenants=6)
        assert [s.faults for s in a] != [s.faults for s in b]

    def test_tenant_count_and_fault_bounds(self):
        schedules = generate_cluster_chaos_schedules(
            4, 5, tenants=5, min_faults=1, max_faults=2
        )
        for schedule in schedules:
            assert len(schedule.tenants) == 5
            assert 1 <= len(schedule.faults) <= 2
            for fault in schedule.faults:
                assert fault.kind in CLUSTER_FAULT_KINDS
                assert 0 <= fault.step < schedule.rounds

    def test_prune_steps_rejected(self):
        """Tenants execute no inputs, so a prune step has nothing to
        prune: generation refuses it instead of replay failing later."""
        with pytest.raises(ValueError, match="prune"):
            generate_cluster_chaos_schedules(1, 2, tenants=2, include_prune=True)

    def test_fault_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(0, "meteor-strike")
        with pytest.raises(ValueError):
            FaultEvent(-1, "shard-kill")

    def test_describe_mentions_faults(self):
        schedule = generate_cluster_chaos_schedules(1, 3, tenants=4)[0]
        text = CLUSTER_LAYOUT.line(Outcome(schedule, counters=dict(
            injected={}, failovers=0, migrations=0, resubmits=0,
            live_shards=3, degraded=False, tenants=[],
        )))
        assert "tenants" in text and "rounds" in text
        assert schedule.describe_faults() in text


class TestSweep:
    def test_shard_kill_sweep_recovers_fingerprint_identical(self):
        # Small tier-1 version of the CI acceptance sweep: one seeded
        # schedule, 3 shards, 4 tenants over one program.  Every tenant
        # campaign must complete and every surviving engine must rebuild
        # fingerprint-identical to an uninterrupted run.
        report = cluster_replay(
            [get_program("json")], shards=3, tenants=4,
            max_inputs=2, reply_timeout_s=3.0,
        ).run(generate_cluster_chaos_schedules(1, 7, tenants=4), seed=7)
        assert report.ok, report.failures
        outcome = report.outcomes[0]
        assert outcome.error is None
        assert sum(outcome.counters["injected"].values()) >= 1
        assert len(outcome.counters["tenants"]) == 4
        for tenant in outcome.counters["tenants"]:
            assert tenant["mismatches"] == []
        # The report is JSON-serializable end to end (CI artifact).
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["shards"] == 3
        assert payload["outcomes"][0]["tenants"][0]["tenant_id"] == "tenant-0"
        assert "cluster[" in report.summary()

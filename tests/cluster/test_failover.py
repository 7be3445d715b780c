"""Shard failover: kill/hang/partition semantics + state recovery."""

import pytest

from repro.check.oracle import DifferentialOracle
from repro.cluster import (
    CompileCluster,
    RouterPartitionError,
    ShardDownError,
    TenantSpec,
)
from repro.fuzz.executor import PRESERVED
from repro.instrument.coverage import OdinCov
from repro.programs.registry import get_program
from repro.service.jobs import CompileRequest

PROGRAM = "json"


def instrument(engine):
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    return tool


def make_cluster(**kwargs):
    kwargs.setdefault("shards", 3)
    kwargs.setdefault("reply_timeout_s", 2.0)
    kwargs.setdefault("heartbeat_miss_threshold", 2)
    cluster = CompileCluster(**kwargs)
    cluster.register_tenant(TenantSpec("alice", weight=2.0))
    cluster.register_target(
        "alice", PROGRAM, get_program(PROGRAM).compile(),
        instrument=instrument, preserve=PRESERVED,
    )
    return cluster


class TestShardFaultSemantics:
    def test_killed_shard_resets_submits_and_queued_jobs(self):
        cluster = make_cluster()
        try:
            home = cluster.shards[cluster.shard_of("alice", PROGRAM)]
            job = home.submit(CompileRequest(target=f"alice:{PROGRAM}"))
            errored = home.kill()
            assert errored == 1
            with pytest.raises(ShardDownError):
                job.result(1.0)
            with pytest.raises(ShardDownError):
                home.submit(CompileRequest(target=f"alice:{PROGRAM}"))
        finally:
            cluster.close()

    def test_partitioned_shard_is_unreachable_until_healed(self):
        cluster = make_cluster()
        try:
            home = cluster.shards[cluster.shard_of("alice", PROGRAM)]
            home.partition()
            with pytest.raises(RouterPartitionError):
                home.submit(CompileRequest(target=f"alice:{PROGRAM}"))
            assert home.heartbeat() is False
            home.heal_partition()
            assert home.heartbeat() is True
            home.submit(CompileRequest(target=f"alice:{PROGRAM}"))
        finally:
            cluster.close()


class TestFailover:
    def test_kill_migrates_and_preserves_probe_state(self):
        cluster = make_cluster()
        try:
            cluster.start()
            engine = cluster.engine("alice", PROGRAM)
            client = cluster.client("alice", PROGRAM, client_id="c0")
            pids = sorted(p.id for p in engine.manager)
            client.rebuild(client.disable(*pids[:3]))
            client.rebuild(client.remove(pids[3]))

            home = cluster.shard_of("alice", PROGRAM)
            cluster.shards[home].kill()
            # The next request fails over and resubmits transparently.
            reply = client.rebuild(client.enable(pids[0]))
            assert reply is not None
            assert cluster.shard_of("alice", PROGRAM) != home
            assert cluster.metrics.counter("failovers") == 1
            assert cluster.metrics.counter("targets_migrated") == 1

            # Acked ledger replayed on the new shard: disabled probes
            # stay disabled, the removed probe stays gone, the re-enabled
            # one is enabled.
            engine = cluster.engine("alice", PROGRAM)
            state = {p.id: p.enabled for p in engine.manager}
            assert pids[3] not in state
            assert state[pids[0]] is True
            assert state[pids[1]] is False and state[pids[2]] is False
        finally:
            cluster.close()

    def test_recovered_state_is_fingerprint_identical(self):
        cluster = make_cluster()
        try:
            cluster.start()
            engine = cluster.engine("alice", PROGRAM)
            client = cluster.client("alice", PROGRAM)
            pids = sorted(p.id for p in engine.manager)
            client.rebuild(client.disable(*pids[:2]))
            cluster.shards[cluster.shard_of("alice", PROGRAM)].kill()
            client.rebuild(client.disable(pids[2]))
            # The recovery oracle: post-failover state rebuilds identical
            # (objects, linked image, behaviour) to an uninterrupted run.
            oracle = DifferentialOracle(get_program(PROGRAM), max_inputs=2)
            mismatches = oracle.compare_to_reference(
                cluster.engine("alice", PROGRAM)
            )
            assert mismatches == []
        finally:
            cluster.close()

    def test_hang_recovers_via_result_deadline(self):
        cluster = make_cluster(reply_timeout_s=1.0)
        try:
            cluster.start()
            engine = cluster.engine("alice", PROGRAM)
            client = cluster.client("alice", PROGRAM)
            pid = sorted(p.id for p in engine.manager)[0]
            home = cluster.shard_of("alice", PROGRAM)
            cluster.shards[home].hang()
            # Submit is accepted by the hung shard; the bounded result()
            # wait expires, the router condemns the shard, and the same
            # token is resubmitted on the takeover shard.
            reply = client.rebuild(client.disable(pid))
            assert reply is not None
            assert cluster.shard_of("alice", PROGRAM) != home
            assert cluster.metrics.counter("resubmits") >= 1
            state = {p.id: p.enabled for p in cluster.engine("alice", PROGRAM).manager}
            assert state[pid] is False
        finally:
            cluster.close()

    def test_transient_partition_heals_without_failover(self):
        cluster = make_cluster()
        try:
            cluster.start()
            home = cluster.shard_of("alice", PROGRAM)
            cluster.shards[home].partition()
            cluster.check_health_once()  # one miss: below threshold
            cluster.shards[home].heal_partition()
            cluster.check_health_once()
            assert cluster.shard_of("alice", PROGRAM) == home
            assert cluster.metrics.counter("failovers") == 0
            client = cluster.client("alice", PROGRAM)
            assert client.rebuild(()) is not None
        finally:
            cluster.close()

    def test_sustained_partition_escalates_to_failover(self):
        cluster = make_cluster()
        try:
            cluster.start()
            home = cluster.shard_of("alice", PROGRAM)
            cluster.shards[home].partition()
            cluster.check_health_once()
            assert cluster.metrics.counter("failovers") == 0
            cluster.check_health_once()  # second consecutive miss condemns
            assert cluster.metrics.counter("failovers") == 1
            assert cluster.shard_of("alice", PROGRAM) != home
            assert home not in cluster.ring
        finally:
            cluster.close()

    def test_degraded_mode_follows_capacity_loss(self):
        cluster = make_cluster()
        try:
            cluster.start()
            assert cluster.degraded is False
            victim = next(
                sid for sid in cluster.ring.nodes
            )
            cluster.shards[victim].kill()
            cluster.check_health_once()
            assert cluster.degraded is True
            assert cluster.tenants.degraded is True
        finally:
            cluster.close()

"""CompileCluster: routing, shared cache tier, quotas, stats."""

import pytest

from repro.fuzz.executor import PRESERVED
from repro.cluster import (
    ClusterError,
    CompileCluster,
    TenantQuotaError,
    TenantSpec,
    TIER_BULK,
)
from repro.instrument.coverage import OdinCov
from repro.programs.registry import get_program

PROGRAM = "json"


def instrument(engine):
    tool = OdinCov(engine)
    tool.add_all_block_probes()
    return tool


def make_cluster(**kwargs):
    kwargs.setdefault("shards", 3)
    kwargs.setdefault("reply_timeout_s", 5.0)
    return CompileCluster(**kwargs)


def register(cluster, tenant_id, *, weight=1.0, tier="interactive",
             program=PROGRAM, build=True):
    cluster.register_tenant(TenantSpec(tenant_id, weight=weight, tier=tier))
    return cluster.register_target(
        tenant_id, program, get_program(program).compile(),
        instrument=instrument, preserve=PRESERVED, build=build,
    )


class TestRouting:
    def test_same_program_lands_on_same_shard_across_tenants(self):
        cluster = make_cluster()
        try:
            register(cluster, "alice")
            register(cluster, "bob", tier=TIER_BULK)
            assert cluster.shard_of("alice", PROGRAM) == cluster.shard_of(
                "bob", PROGRAM
            )
        finally:
            cluster.close()

    def test_routing_is_deterministic_across_clusters(self):
        a, b = make_cluster(), make_cluster()
        try:
            register(a, "alice", build=False)
            register(b, "alice", build=False)
            assert a.shard_of("alice", PROGRAM) == b.shard_of("alice", PROGRAM)
        finally:
            a.close()
            b.close()

    def test_unknown_tenant_and_duplicate_target_rejected(self):
        cluster = make_cluster()
        try:
            with pytest.raises(Exception):
                cluster.register_target(
                    "ghost", PROGRAM, get_program(PROGRAM).compile()
                )
            register(cluster, "alice", build=False)
            with pytest.raises(ClusterError):
                cluster.register_target(
                    "alice", PROGRAM, get_program(PROGRAM).compile()
                )
        finally:
            cluster.close()


class TestSharedCacheTier:
    def test_second_tenant_build_hits_cross_tenant(self):
        cluster = make_cluster()
        try:
            register(cluster, "alice")
            assert cluster.metrics.counter("cross_tenant_cache_hits") == 0
            register(cluster, "bob", tier=TIER_BULK)
            # bob's initial build was served from objects alice compiled.
            assert cluster.metrics.counter("cross_tenant_cache_hits") > 0
        finally:
            cluster.close()

    def test_one_cache_instance_mounted_by_every_shard(self):
        cluster = make_cluster()
        try:
            for shard in cluster.shards.values():
                assert shard.service.cache is cluster.cache
                assert shard.service.pass_memo is cluster.pass_memo
        finally:
            cluster.close()


class TestRequestPath:
    def test_rebuild_round_trip(self):
        cluster = make_cluster()
        try:
            engine = register(cluster, "alice")
            cluster.start()
            client = cluster.client("alice", PROGRAM, client_id="c0")
            pids = sorted(p.id for p in engine.manager)[:4]
            reply = client.rebuild(client.disable(*pids))
            assert reply.ops_applied == 4
            state = {p.id: p.enabled for p in engine.manager}
            assert all(state[pid] is False for pid in pids)
        finally:
            cluster.close()

    def test_quota_shed_raises_before_touching_a_shard(self):
        cluster = make_cluster(quota_window=8)
        try:
            engine = register(cluster, "alice", weight=3.0)
            register(cluster, "bob", tier=TIER_BULK)
            cluster.start()
            alice = cluster.client("alice", PROGRAM)
            bob = cluster.client("bob", PROGRAM)
            pid = sorted(p.id for p in engine.manager)[0]
            shed = 0
            for _ in range(12):
                for client in (alice, bob):
                    try:
                        client.rebuild(client.mark_changed(pid))
                    except TenantQuotaError as error:
                        assert error.retry_after_s is not None
                        shed += 1
            assert shed > 0
            stats = cluster.tenants.stats()["tenants"]
            assert stats["bob"]["shed_quota"] > 0
            assert stats["alice"]["shed_quota"] == 0
        finally:
            cluster.close()


class TestStats:
    def test_stats_shape(self):
        cluster = make_cluster()
        try:
            register(cluster, "alice")
            stats = cluster.stats()
            assert stats["cluster"]["shards"] == 3
            assert stats["cluster"]["live_shards"] == 3
            assert stats["cluster"]["degraded"] is False
            assert f"alice:{PROGRAM}" in stats["cluster"]["targets"]
            assert set(stats["shards"]) == {"shard-0", "shard-1", "shard-2"}
            for shard_stats in stats["shards"].values():
                assert shard_stats["state"] == "up"
                assert "breaker" in shard_stats
            assert "alice" in stats["tenants"]["tenants"]
            assert "shared_cache" in stats
            assert "pass_memo" in stats
        finally:
            cluster.close()

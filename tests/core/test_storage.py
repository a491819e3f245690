"""Control-plane storage layer: backend contract parity, replication
fault semantics, TCSP replica failover, and regressions for the resync /
deploy-registration / watchdog-baseline fixes (DESIGN.md §9).
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core import (
    DeploymentScope,
    InMemoryBackend,
    NumberAuthority,
    ReplicatedBackend,
    StoreLog,
    StoreTable,
    Tcsp,
    TcspReplicaSet,
    TrafficControlService,
)
from repro.core.ownership import NetworkUser
from repro.core.storage import shard_key
from repro.errors import StorageError
from repro.experiments.common import parallel_map
from repro.net import Network, TopologyBuilder
from repro.net.simulator import Simulator

from tests.core.test_resilience import build_world, drop_udp_factory


# ---------------------------------------------------------------------------
# backend contract: InMemoryBackend + the table/log views
# ---------------------------------------------------------------------------

class TestInMemoryBackend:
    def test_round_trip_and_order(self):
        b = InMemoryBackend()
        b.put("t", "b", 1)
        b.put("t", "a", 2)
        b.put("t", "b", 3)  # overwrite keeps first-insertion order
        assert b.get("t", "b") == 3
        assert b.keys("t") == ["b", "a"]
        assert b.items("t") == [("b", 3), ("a", 2)]
        assert b.length("t") == 2
        assert b.contains("t", "a") and not b.contains("t", "zz")

    def test_delete_and_clear(self):
        b = InMemoryBackend()
        b.put("t", "k", 1)
        assert b.delete("t", "k") and not b.delete("t", "k")
        b.put("t", "x", 1)
        b.clear("t")
        assert b.length("t") == 0

    def test_tables_are_independent(self):
        b = InMemoryBackend()
        b.put("t1", "k", 1)
        assert not b.contains("t2", "k")
        assert b.next_key("t1") == 0 and b.next_key("t1") == 1
        assert b.next_key("t2") == 0  # per-table sequences

    def test_not_durable(self):
        assert InMemoryBackend().durable is False
        assert ReplicatedBackend(3).durable is True


class TestStoreViews:
    def test_table_is_a_mutable_mapping(self):
        t = StoreTable(InMemoryBackend(), "t")
        t["a"] = 1
        t["b"] = 2
        assert t["a"] == 1 and "b" in t and len(t) == 2
        assert dict(t.items()) == {"a": 1, "b": 2}
        assert sorted(t) == ["a", "b"]
        assert t.get("zz") is None
        del t["a"]
        with pytest.raises(KeyError):
            t["a"]
        with pytest.raises(KeyError):
            del t["a"]
        t.clear()
        assert len(t) == 0

    def test_log_append_remove_replace(self):
        log = StoreLog(InMemoryBackend(), "log")
        log.append(("x", 1))
        log.append(("y", 2))
        log.append(("x", 1))
        assert list(log) == [("x", 1), ("y", 2), ("x", 1)]
        assert ("y", 2) in log and len(log) == 3
        assert log.remove(("x", 1))          # first match only
        assert list(log) == [("y", 2), ("x", 1)]
        assert not log.remove(("zz", 0))
        log.replace([("a", 0)])
        assert list(log) == [("a", 0)] and log[0] == ("a", 0)

    def test_two_logs_on_one_backend_never_collide(self):
        backend = InMemoryBackend()
        one, two = StoreLog(backend, "log"), StoreLog(backend, "log")
        one.append("from-one")
        two.append("from-two")  # key allocation lives in the backend
        assert list(one) == ["from-one", "from-two"] == list(two)


# ---------------------------------------------------------------------------
# sharding + replication semantics
# ---------------------------------------------------------------------------

class TestSharding:
    def test_prefix_like_keys_shard_by_top_byte(self):
        class P:
            def __init__(self, first):
                self.first = first

        assert shard_key(P(10 << 24)) == 10
        assert shard_key(P((10 << 24) + 999)) == 10  # adjacent -> same shard

    def test_plain_keys_hash_stably(self):
        assert shard_key("acme") == shard_key("acme")
        assert shard_key("acme") != shard_key("globex")

    def test_owner_is_deterministic(self):
        a, b = ReplicatedBackend(3), ReplicatedBackend(3)
        assert a.owner_of("t", "acme") == b.owner_of("t", "acme")

    def test_bad_configuration_rejected(self):
        with pytest.raises(StorageError):
            ReplicatedBackend(0)
        with pytest.raises(StorageError):
            ReplicatedBackend(3, loss_rate=1.5)
        with pytest.raises(StorageError):
            ReplicatedBackend(3, replication_lag=-1.0)
        with pytest.raises(StorageError):
            ReplicatedBackend(3).crash_replica(7)


def _apply_script(backend):
    """The shared op sequence for the parity tests."""
    backend.put("reg", "acme", {"p": 1})
    backend.put("reg", "globex", {"p": 2})
    backend.put("reg", "acme", {"p": 3})
    backend.put("contracts", "isp-0", "c0")
    backend.delete("reg", "globex")
    backend.put("reg", "initech", {"p": 4})
    return backend


def _snapshot(backend):
    return {t: backend.items(t) for t in ("reg", "contracts")}


class TestBackendParity:
    def test_healthy_replicated_matches_memory(self):
        mem = _apply_script(InMemoryBackend())
        rep = _apply_script(ReplicatedBackend(3, seed=7))
        assert _snapshot(mem) == _snapshot(rep)

    def test_healed_replicated_matches_memory(self):
        mem = _apply_script(InMemoryBackend())
        rep = ReplicatedBackend(3, seed=7)
        rep.crash_replica(1)
        _apply_script(rep)
        rep.restart_replica(1)
        rep.anti_entropy()
        assert _snapshot(mem) == _snapshot(rep)
        assert rep.permanently_lost() == 0
        assert rep.divergent_records() == 0


class TestReplicationFaults:
    def test_follower_down_loses_delivery_until_anti_entropy(self):
        rep = ReplicatedBackend(3, seed=1)
        owner = rep.owner_of("t", "k")
        follower = (owner + 1) % 3
        rep.crash_replica(follower)
        rep.put("t", "k", "v")
        assert rep.lost_writes == 1
        assert rep.get("t", "k") == "v"  # owner still serves
        rep.restart_replica(follower)
        assert rep.divergent_records() == 1
        assert rep.anti_entropy() >= 1
        assert rep.divergent_records() == 0

    def test_delete_while_a_replica_is_down_stays_deleted(self):
        """A down replica keeps its copy of a deleted record; the delete's
        tombstone outranks it, so anti-entropy does not bring it back.
        Minimised from tests/core/test_store_differential.py."""
        rep = ReplicatedBackend(3, seed=1)
        rep.put("t", "k", "v")
        rep.crash_replica(rep.owner_of("t", "k"))
        assert rep.delete("t", "k")
        for index in range(3):
            rep.restart_replica(index)
        rep.anti_entropy()
        assert not rep.contains("t", "k")
        assert rep.get("t", "k") is None
        assert rep.divergent_records() == 0

    def test_delete_through_a_stale_owner_still_deletes(self):
        """The write lands on the one live replica; the owner comes back
        without it.  A delete must not read that as "absent".  Minimised
        from tests/core/test_store_differential.py."""
        rep = ReplicatedBackend(3, seed=1)
        owner = rep.owner_of("t", "k")
        rep.crash_replica(owner)
        rep.crash_replica((owner + 1) % 3)
        rep.put("t", "k", "v")
        rep.restart_replica(owner)
        assert rep.delete("t", "k")
        for index in range(3):
            rep.restart_replica(index)
        rep.anti_entropy()
        assert rep.keys("t") == [] and not rep.contains("t", "k")
        assert rep.permanently_lost() == 0

    def test_owner_down_is_a_counted_failover_write(self):
        rep = ReplicatedBackend(3, seed=1)
        owner = rep.owner_of("t", "k")
        rep.crash_replica(owner)
        rep.put("t", "k", "v")
        assert rep.failover_writes == 1
        assert rep.get("t", "k") == "v"  # the ring read finds it

    def test_stale_read_counted_when_serving_replica_lags(self):
        rep = ReplicatedBackend(3, seed=1)
        owner = rep.owner_of("t", "k")
        follower = (owner + 1) % 3
        rep.put("t", "k", "old")
        rep.crash_replica(follower)
        rep.put("t", "k", "new")    # follower misses the update
        rep.restart_replica(follower)
        rep.crash_replica(owner)    # reads now fall through to the follower
        before = rep.stale_reads
        assert rep.get("t", "k") == "old"
        assert rep.stale_reads == before + 1

    def test_all_replicas_down_unavailable_then_permanently_lost(self):
        rep = ReplicatedBackend(2, seed=1)
        rep.crash_replica(0)
        rep.crash_replica(1)
        rep.put("t", "k", "v")
        assert rep.lost_writes == 1
        assert rep.get("t", "k", "fallback") == "fallback"
        assert rep.permanently_lost() == 1  # no replica ever held it

    def test_crash_is_idempotent_and_counted_once(self):
        rep = ReplicatedBackend(3, seed=1)
        rep.crash_replica(1)
        rep.crash_replica(1)
        assert rep.replicas[1].crashes == 1
        assert rep.live_replicas == 2
        assert not rep.replica_up(1) and rep.replica_up(0)

    def test_replication_lag_with_simulator_converges(self):
        sim = Simulator()
        rep = ReplicatedBackend(3, seed=3, replication_lag=0.05, sim=sim)
        rep.put("t", "k", "v")
        # synchronous on the owner, async on the followers
        holders = sum(1 for r in rep.replicas if ("t", "k") in r.records)
        assert holders == 1
        sim.run(until=5.0)
        holders = sum(1 for r in rep.replicas if ("t", "k") in r.records)
        assert holders == 3
        assert rep.divergent_records() == 0


def _replicated_run(seed: int):
    """Top-level so the process-pool determinism test can pickle it."""
    rep = ReplicatedBackend(3, seed=seed, loss_rate=0.3)
    for i in range(20):
        rep.put("t", f"k{i % 7}", i)
    rep.crash_replica(seed % 3)
    for i in range(20, 30):
        rep.put("t", f"k{i % 7}", i)
    rep.restart_replica(seed % 3)
    rep.anti_entropy()
    return (rep.items("t"), rep.lost_writes, rep.stale_reads,
            rep.permanently_lost())


class TestDeterminism:
    SEEDS = [1, 2, 3, 4]

    def test_serial_vs_parallel_map_vs_process_pool(self):
        serial = [_replicated_run(s) for s in self.SEEDS]
        fanned = parallel_map(_replicated_run, self.SEEDS, workers=2)
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = list(pool.map(_replicated_run, self.SEEDS))
        assert serial == fanned == pooled

    def test_same_seed_same_history(self):
        assert _replicated_run(5) == _replicated_run(5)


# ---------------------------------------------------------------------------
# TCSP replica set: leader lease + failover over a shared store
# ---------------------------------------------------------------------------

def _replica_world(store=None, seed=1):
    net = Network(TopologyBuilder.hierarchical(2, 2, 4, seed=seed))
    authority = NumberAuthority()
    tcsp = TcspReplicaSet("TCSP", authority, net, store=store, n_standbys=1)
    tcsp.start()
    nms = tcsp.contract_isp("isp", net.topology.as_numbers)
    victim_asn = net.topology.stub_ases[0]
    prefix = net.topology.prefix_of(victim_asn)
    authority.record_allocation(prefix, "acme")
    return net, tcsp, nms, prefix


class TestTcspReplicaSet:
    def test_failover_promotes_standby_after_lease_expiry(self):
        net, tcsp, nms, prefix = _replica_world()
        tcsp.register_user("acme", [prefix])
        tcsp.primary.reachable = False
        assert tcsp.leader_index == 0
        net.run(until=2.0)  # lease ticks lapse the lease and promote
        assert tcsp.leader_index == 1
        assert tcsp.failovers == 1
        assert tcsp.reachable

    def test_promoted_standby_sees_pre_crash_state(self):
        net, tcsp, nms, prefix = _replica_world()
        user, cert = tcsp.register_user("acme", [prefix])
        tcsp.primary.reachable = False
        net.run(until=2.0)
        # the standby serves registration and contract state written by
        # the old leader, through the shared store
        assert tcsp.user("acme").user_id == "acme"
        assert tcsp.leader.nmses == [nms]
        svc = TrafficControlService(tcsp, user, cert)
        result = svc.deploy(DeploymentScope.stub_borders(),
                            dst_graph_factory=drop_udp_factory)
        assert svc.fallback_used == 0  # no fallback needed: failover did it
        assert set(result["isp"]) == set(net.topology.stub_ases)

    def test_works_on_a_replicated_store_too(self):
        store = ReplicatedBackend(3, seed=9)
        net, tcsp, nms, prefix = _replica_world(store=store)
        tcsp.register_user("acme", [prefix])
        tcsp.primary.reachable = False
        net.run(until=2.0)
        assert tcsp.user("acme").user_id == "acme"
        assert store.writes > 0

    def test_no_promotion_while_lease_is_live(self):
        net, tcsp, nms, prefix = _replica_world()
        tcsp.primary.reachable = False
        tcsp._maybe_failover()  # now=0 < lease expiry
        assert tcsp.leader_index == 0

    def test_restore_revives_all_replicas(self):
        net, tcsp, nms, prefix = _replica_world()
        tcsp.primary.reachable = False
        net.run(until=2.0)
        assert tcsp.leader_index == 1
        tcsp.reachable = True  # the injector's clear path
        assert all(r.reachable for r in tcsp.replicas)


# ---------------------------------------------------------------------------
# satellite regressions
# ---------------------------------------------------------------------------

class TestResyncBookkeeping:
    def test_successful_resync_prunes_the_undelivered_ledger(self):
        net, tcsp, nmses, svc, victim_asn = build_world(n_isps=2)
        svc.deploy(DeploymentScope.stub_borders(),
                   dst_graph_factory=drop_udp_factory)
        nmses[1].partitioned = True
        svc.set_active(False)
        assert ("isp-1", "set_active") in tcsp.undelivered
        nmses[1].partitioned = False
        assert tcsp.resync() == 1
        # the ledger now reports outstanding work only
        assert ("isp-1", "set_active") not in tcsp.undelivered
        assert len(tcsp.undelivered) == 0

    def test_vanished_contract_is_counted_not_silently_dropped(self):
        net, tcsp, nmses, svc, victim_asn = build_world(n_isps=2)
        svc.deploy(DeploymentScope.stub_borders(),
                   dst_graph_factory=drop_udp_factory)
        nmses[1].partitioned = True
        svc.set_active(False)
        del tcsp.contracts["isp-1"]  # the ISP leaves mid-partition
        nmses[1].partitioned = False
        assert tcsp.resync() == 0
        assert tcsp.resync_dropped == 1
        assert len(tcsp.undelivered) == 0
        assert tcsp.resync() == 0  # nothing left pending either

    def test_still_partitioned_relay_stays_in_both_ledgers(self):
        net, tcsp, nmses, svc, victim_asn = build_world(n_isps=2)
        svc.deploy(DeploymentScope.stub_borders(),
                   dst_graph_factory=drop_udp_factory)
        nmses[1].partitioned = True
        svc.set_active(False)
        assert tcsp.resync() == 0  # still down: nothing delivered
        assert ("isp-1", "set_active") in tcsp.undelivered
        nmses[1].partitioned = False
        assert tcsp.resync() == 1


class TestDeployRegistersEveryPrefix:
    def test_later_prefixes_get_ownership_entries(self):
        net, tcsp, nmses, svc, victim_asn = build_world()
        nms = nmses[0]
        authority = tcsp.authority
        p1 = net.topology.prefix_of(victim_asn)
        p2 = net.topology.prefix_of(net.topology.stub_ases[1])
        authority.record_allocation(p2, "acme")
        # first deployment registers the single-prefix user
        user1, cert1 = tcsp.register_user("acme", [p1])
        nms.deploy(cert1, user1, [victim_asn],
                   dst_graph_factory=drop_udp_factory)
        assert nms.registry.owner_of(p1.first) is not None
        # the user re-registers with an additional prefix: p1 is already
        # owned, but p2 still needs its own ownership entry
        user2, cert2 = tcsp.register_user("acme", [p1, p2])
        nms.deploy(cert2, user2, [victim_asn],
                   dst_graph_factory=drop_udp_factory)
        owner = nms.registry.owner_of(p2.first)
        assert owner is not None and owner.user_id == "acme"


class TestWatchdogLateAttach:
    def test_device_attached_after_watchdog_start_is_baselined(self):
        net = Network(TopologyBuilder.hierarchical(2, 2, 4, seed=1))
        authority = NumberAuthority()
        tcsp = Tcsp("TCSP", authority, net)
        nms = tcsp.contract_isp("isp", net.topology.as_numbers,
                                attach_all=False)
        victim_asn = int(net.topology.stub_ases[0])
        late_asn = int(net.topology.stub_ases[1])
        nms.attach_devices([victim_asn])
        prefix = net.topology.prefix_of(victim_asn)
        authority.record_allocation(prefix, "acme")
        user, cert = tcsp.register_user("acme", [prefix])
        svc = TrafficControlService(tcsp, user, cert)
        svc.deploy(DeploymentScope.stub_borders(),
                   dst_graph_factory=drop_udp_factory)
        nms.start_watchdog(interval=0.5)

        def attach_and_deploy():
            nms.attach_devices([late_asn])
            svc.deploy(DeploymentScope.explicit([late_asn]),
                       dst_graph_factory=drop_udp_factory)

        net.sim.schedule_at(0.6, attach_and_deploy)
        # crash + wiped restart entirely before the device's first
        # heartbeat: only the attach-time baseline can catch this
        net.sim.schedule_at(0.7, lambda: nms.devices[late_asn].crash())
        net.sim.schedule_at(0.8, lambda: nms.devices[late_asn].restart())
        net.run(until=1.3)
        assert nms.services_reinstalled >= 1
        assert "acme" in nms.devices[late_asn].services


# ---------------------------------------------------------------------------
# store-backed Tcsp keeps its public semantics
# ---------------------------------------------------------------------------

class TestTcspOnExplicitStore:
    def test_state_lands_on_the_given_backend(self):
        net = Network(TopologyBuilder.hierarchical(2, 2, 4, seed=1))
        store = InMemoryBackend()
        authority = NumberAuthority()
        tcsp = Tcsp("TCSP", authority, net, store=store)
        tcsp.contract_isp("isp", net.topology.as_numbers)
        victim_asn = net.topology.stub_ases[0]
        prefix = net.topology.prefix_of(victim_asn)
        authority.record_allocation(prefix, "acme")
        tcsp.register_user("acme", [prefix])
        assert store.contains("tcsp.contracts", "isp")
        assert store.contains("tcsp.registered", "acme")
        # the contracted NMS shares the TCSP's backend
        assert tcsp.nmses[0].store is store

"""Fault plans and the injector: deterministic schedules, clean round
trips, and a simulator ``reset()`` that leaves no fault state behind.
"""

from dataclasses import replace

import pytest

from repro.core import NumberAuthority, Tcsp
from repro.errors import FaultConfigError
from repro.experiments.common import parallel_map
from repro.net import (
    FaultInjector,
    FaultKind,
    Fault,
    FaultPlan,
    Network,
    TopologyBuilder,
)
from repro.scenario import FaultSpec

SPEC = FaultSpec(n_crashes=3, n_flaps=1, n_partitions=1, n_loss_windows=1,
                 loss_rate=0.4, tcsp_outages=1)
POOLS = dict(horizon=4.0, device_asns=(10, 11, 12), nms_ids=("a", "b"),
             links=((0, 1),))

#: ``SPEC.plan(seed, **POOLS).signature()`` per seed.  The RNG stream and
#: the draw order are part of the contract: E16's tables and every faulted
#: preset depend on them.
PINNED = {
    0: "a95c3aa09dd6d2d50f358c6b836ecaa371b046e48028dcf2f7d91652ab7fba88",
    1: "8324cb3c57766d4f63b8522c81f62bc6e19a02849aebef0ae80b9d0188f604b5",
    2: "31cc7378f309f3b54e3d18293c402f692b3fe176faf7feda10457e7f2c8266f9",
    3: "42fc0e40832504ad0afa14d51fcaece3175f06e68210af62e33f06b9dabc5606",
    4: "82a4e6a4bdb88ffa7367cdf9798b92747708f50d53aa8683f3110d2e83198b1e",
    5: "f84c350a1f65fa6f523ee280c55ecee23dace069e545c83f2d3c8797cab48dca",
    6: "52748e5f02ed4a3e53347096ab01c88cf4a543f36b890fa80fc08d19e4765f79",
    7: "27d8ff5c515f1ee83be6a912a4b6e6b7d41bdca41c6810927a9e758fec621bd7",
}


def plan_signature(seed: int) -> str:
    """Top-level so parallel_map can ship it to pool workers."""
    return SPEC.plan(seed, **POOLS).signature()


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        assert plan_signature(3) == plan_signature(3) == PINNED[3]
        a = SPEC.plan(3, **POOLS)
        b = SPEC.plan(3, **POOLS)
        assert [f.key() for f in a] == [f.key() for f in b]

    def test_different_seed_different_plan(self):
        assert plan_signature(3) != plan_signature(4)

    def test_serial_vs_parallel_map_byte_identical(self):
        seeds = list(range(8))
        serial = [plan_signature(s) for s in seeds]
        fanned = parallel_map(plan_signature, seeds, workers=4)
        assert serial == fanned == [PINNED[s] for s in seeds]

    def test_faults_clear_before_horizon(self):
        plan = SPEC.plan(1, **POOLS)
        assert len(plan) == 7
        assert plan.last_clear < POOLS["horizon"]

    def test_validation(self):
        with pytest.raises(FaultConfigError):
            FaultPlan([Fault(FaultKind.DEVICE_CRASH, -0.1, 1.0, (1,))])
        with pytest.raises(FaultConfigError):
            FaultPlan([Fault(FaultKind.DEVICE_CRASH, 0.1, 0.0, (1,))])
        with pytest.raises(FaultConfigError):
            FaultPlan([Fault(FaultKind.MESSAGE_LOSS, 0.1, 1.0, param=1.5)])
        with pytest.raises(FaultConfigError):
            FaultSpec(n_crashes=1).plan(1, horizon=2.0)  # no targets
        with pytest.raises(FaultConfigError):
            SPEC.plan(1, **{**POOLS, "horizon": 0.0})

    @pytest.mark.parametrize("build", [
        lambda: FaultSpec(n_crashes=-3),
        lambda: FaultSpec(n_flaps=-1),
        lambda: FaultSpec(n_partitions=-1),
        lambda: FaultSpec(tcsp_outages=-1),
        lambda: FaultSpec(n_loss_windows=-1),
        lambda: FaultSpec(n_store_crashes=-1),
        lambda: FaultSpec(n_shard_crashes=-1),
        lambda: FaultSpec(mean_downtime=float("nan")),
        lambda: FaultSpec(mean_downtime=float("inf")),
        lambda: FaultSpec(mean_downtime=0.0),
        lambda: FaultSpec(loss_rate=1.5),
        lambda: FaultSpec(loss_rate=float("nan")),
        lambda: FaultPlan([Fault(FaultKind.DEVICE_CRASH, float("nan"), 1.0, (1,))]),
        lambda: FaultPlan([Fault(FaultKind.DEVICE_CRASH, float("inf"), 1.0, (1,))]),
        lambda: FaultPlan([Fault(FaultKind.DEVICE_CRASH, 0.1, float("nan"), (1,))]),
        lambda: FaultPlan([Fault(FaultKind.DEVICE_CRASH, 0.1, float("inf"), (1,))]),
    ])
    def test_rejects_bad_knobs(self, build):
        with pytest.raises(FaultConfigError):
            build()

    def test_plan_is_sorted_by_start(self):
        plan = SPEC.plan(9, **POOLS)
        starts = [f.start for f in plan]
        assert starts == sorted(starts)

    def test_new_knobs_at_zero_leave_plans_byte_identical(self):
        # the storage/shard fault families draw their randomness AFTER the
        # pre-existing families, so plans without them are unchanged
        baseline = SPEC.plan(3, **POOLS)
        extended = replace(SPEC, n_store_crashes=0, n_shard_crashes=0).plan(
            3, store_replicas=(0, 1, 2), **POOLS)
        assert baseline.signature() == extended.signature()

    def test_store_and_shard_crash_generation(self):
        plan = replace(SPEC, n_store_crashes=2, n_shard_crashes=1).plan(
            3, store_replicas=(0, 1, 2), **POOLS)
        assert plan.signature() == (
            "df9c1ce839f4930480cb96a318cab0fbe7143bedee7094d3a5878271c0a5602b")
        store_faults = plan.by_kind(FaultKind.STORE_REPLICA_CRASH)
        shard_faults = plan.by_kind(FaultKind.NMS_SHARD_CRASH)
        assert len(store_faults) == 2 and len(shard_faults) == 1
        assert all(f.target[0] in (0, 1, 2) for f in store_faults)
        assert shard_faults[0].target[0] in POOLS["nms_ids"]
        with pytest.raises(FaultConfigError):
            FaultSpec(n_store_crashes=1).plan(3, horizon=2.0)  # no pool


def build_world():
    net = Network(TopologyBuilder.hierarchical(2, 2, 4, seed=1))
    tcsp = Tcsp("TCSP", NumberAuthority(), net)
    nms = tcsp.contract_isp("isp1", net.topology.as_numbers)
    return net, tcsp, nms


class TestFaultInjector:
    def test_device_crash_and_wiped_restart(self):
        net, tcsp, nms = build_world()
        asn = net.topology.stub_ases[0]
        plan = FaultPlan([Fault(FaultKind.DEVICE_CRASH, 0.1, 0.2, (asn,))])
        injector = FaultInjector(plan, net, tcsp=tcsp, nmses=[nms])
        injector.arm()
        device = nms.devices[asn]
        net.run(until=0.2)
        assert device.crashed
        net.run(until=1.0)
        assert not device.crashed
        assert device.crashes == 1 and device.restarts == 1
        assert device.services == {}  # Sec. 4.5: restart comes back wiped
        assert injector.injected == injector.cleared == 1

    def test_link_flap_round_trip(self):
        net, tcsp, nms = build_world()
        a, b = 0, 1  # the core-core adjacency is redundant in this topology
        before = {pair: (net.links[pair].bandwidth, net.links[pair].delay,
                         net.links[pair].buffer_bytes)
                  for pair in ((a, b), (b, a))}
        plan = FaultPlan([Fault(FaultKind.LINK_FLAP, 0.1, 0.2, (a, b))])
        FaultInjector(plan, net, nmses=[nms]).arm()
        net.run(until=0.2)
        assert (a, b) not in net.links
        net.run(until=1.0)
        assert (a, b) in net.links
        # the restored link is the backbone link it was, not a default one
        after = {pair: (net.links[pair].bandwidth, net.links[pair].delay,
                        net.links[pair].buffer_bytes)
                 for pair in ((a, b), (b, a))}
        assert after == before

    def test_partitioning_link_flap_skipped(self):
        net, tcsp, nms = build_world()
        # a stub's only uplink: removing it would partition the Internet,
        # so the injector must skip the flap instead of corrupting routing
        stub = net.topology.stub_ases[0]
        peer = next(y for (x, y) in net.links if x == stub)
        plan = FaultPlan([Fault(FaultKind.LINK_FLAP, 0.1, 0.2, (stub, peer))])
        injector = FaultInjector(plan, net, nmses=[nms])
        injector.arm()
        net.run(until=1.0)
        assert injector.skipped == 1
        assert (stub, peer) in net.links

    def test_nms_partition_round_trip(self):
        net, tcsp, nms = build_world()
        plan = FaultPlan([Fault(FaultKind.NMS_PARTITION, 0.1, 0.2, ("isp1",))])
        FaultInjector(plan, net, tcsp=tcsp, nmses=[nms]).arm()
        net.run(until=0.2)
        assert nms.partitioned
        net.run(until=1.0)
        assert not nms.partitioned

    def test_tcsp_outage_round_trip(self):
        net, tcsp, nms = build_world()
        plan = FaultPlan([Fault(FaultKind.TCSP_OUTAGE, 0.1, 0.2)])
        FaultInjector(plan, net, tcsp=tcsp, nmses=[nms]).arm()
        net.run(until=0.2)
        assert not tcsp.reachable
        net.run(until=1.0)
        assert tcsp.reachable

    def test_overlapping_tcsp_outages_clear_last(self):
        net, tcsp, nms = build_world()
        plan = FaultPlan([Fault(FaultKind.TCSP_OUTAGE, 0.1, 0.4),
                          Fault(FaultKind.TCSP_OUTAGE, 0.2, 0.1)])
        FaultInjector(plan, net, tcsp=tcsp, nmses=[nms]).arm()
        net.run(until=0.35)  # the short outage cleared, the long one did not
        assert not tcsp.reachable
        net.run(until=1.0)
        assert tcsp.reachable

    def test_message_loss_window(self):
        net, tcsp, nms = build_world()
        plan = FaultPlan([Fault(FaultKind.MESSAGE_LOSS, 0.1, 0.3, param=1.0)])
        injector = FaultInjector(plan, net, tcsp=tcsp, nmses=[nms])
        injector.arm()
        assert tcsp.channel.injector is injector  # arm() attaches itself
        assert nms.channel.injector is injector
        net.run(until=0.2)
        assert injector.loss_rate_at(net.sim.now) == 1.0
        assert injector.drop_message("tcsp:TCSP", "op", net.sim.now)
        net.run(until=1.0)
        assert injector.loss_rate_at(net.sim.now) == 0.0
        assert not injector.drop_message("tcsp:TCSP", "op", net.sim.now)

    def test_store_replica_crash_round_trip(self):
        from repro.core import ReplicatedBackend

        net, tcsp, nms = build_world()
        store = ReplicatedBackend(3, seed=1)
        plan = FaultPlan([Fault(FaultKind.STORE_REPLICA_CRASH, 0.1, 0.2, (1,))])
        injector = FaultInjector(plan, net, tcsp=tcsp, nmses=[nms],
                                 store=store)
        injector.arm()
        net.run(until=0.2)
        assert not store.replica_up(1) and store.live_replicas == 2
        net.run(until=1.0)
        assert store.replica_up(1) and store.live_replicas == 3
        assert injector.injected == injector.cleared == 1

    def test_store_replica_crash_skipped_without_store(self):
        net, tcsp, nms = build_world()
        plan = FaultPlan([Fault(FaultKind.STORE_REPLICA_CRASH, 0.1, 0.2, (1,))])
        injector = FaultInjector(plan, net, tcsp=tcsp, nmses=[nms])
        injector.arm()
        net.run(until=1.0)
        assert injector.skipped == 1 and injector.injected == 0

    def test_nms_shard_crash_round_trip(self):
        net, tcsp, nms = build_world()
        plan = FaultPlan([Fault(FaultKind.NMS_SHARD_CRASH, 0.1, 0.2,
                                ("isp1",))])
        injector = FaultInjector(plan, net, tcsp=tcsp, nmses=[nms])
        injector.arm()
        net.run(until=0.2)
        assert nms.partitioned and nms.nms_crashes == 1
        net.run(until=1.0)
        assert not nms.partitioned  # restarted and reconciled

    def test_nms_shard_crash_unknown_target_skipped(self):
        net, tcsp, nms = build_world()
        plan = FaultPlan([Fault(FaultKind.NMS_SHARD_CRASH, 0.1, 0.2,
                                ("no-such-isp",))])
        injector = FaultInjector(plan, net, tcsp=tcsp, nmses=[nms])
        injector.arm()
        net.run(until=1.0)
        assert injector.skipped == 1

    def test_arm_twice_rejected(self):
        net, tcsp, nms = build_world()
        injector = FaultInjector(FaultPlan(), net, nmses=[nms])
        injector.arm()
        with pytest.raises(FaultConfigError):
            injector.arm()


class TestSimulatorReset:
    def test_reset_clears_fault_state(self):
        net, tcsp, nms = build_world()
        asn = net.topology.stub_ases[0]
        plan = FaultPlan([Fault(FaultKind.DEVICE_CRASH, 0.1, 5.0, (asn,)),
                          Fault(FaultKind.MESSAGE_LOSS, 0.1, 5.0, param=1.0)])
        injector = FaultInjector(plan, net, tcsp=tcsp, nmses=[nms])
        injector.arm()
        net.run(until=0.2)
        assert injector.active
        net.sim.reset()
        assert not injector.armed
        assert not injector.active
        assert injector.messages_dropped == 0
        assert tcsp.channel.injector is None  # detached again
        assert net.sim.pending == 0
        # a reset injector can be re-armed for the next trial
        injector.arm()
        assert net.sim.pending == 2 * len(plan)

    def test_reset_clears_watchdog_timer(self):
        net, tcsp, nms = build_world()
        nms.start_watchdog()  # ticks every 0.25 s
        net.run(until=0.8)
        assert nms.watchdog_ticks == 3
        net.sim.reset()
        assert nms._watchdog_event is None
        assert net.sim.pending == 0
        net.run(until=1.0)
        assert nms.watchdog_ticks == 3  # no zombie heartbeat survived reset

    def test_stop_watchdog_mid_run_stops_heartbeat(self):
        net, tcsp, nms = build_world()
        nms.start_watchdog()  # ticks every 0.25 s
        net.run(until=0.8)
        nms.stop_watchdog()
        net.run(until=1.0)
        assert nms.watchdog_ticks == 3
        assert net.sim.pending == 0

    def test_reset_hooks_run_once_then_discarded(self):
        net, _, _ = build_world()
        fired = []
        net.sim.add_reset_hook(lambda: fired.append(1))
        net.sim.reset()
        net.sim.reset()
        assert fired == [1]

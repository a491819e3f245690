"""Micro-benchmarks of the performance-critical primitives.

These are the hot paths identified by profiling (per the HPC guides:
measure, then optimise): the ownership/routing trie lookup, the adaptive
device's redirect decision and two-stage pipeline, the event loop, the
packet-level forwarding path, and the vectorised fluid evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ComponentGraph, NetworkUser, OwnershipRegistry
from repro.core.components import HeaderFilter, HeaderMatch
from repro.experiments.e6_scalability import build_device
from repro.net import (
    Flow,
    FlowSet,
    FluidNetwork,
    IPv4Address,
    LinkParams,
    Network,
    Packet,
    PacketBatch,
    Prefix,
    PrefixTable,
    Protocol,
    Simulator,
    TopologyBuilder,
)
from repro.util.units import Mbps, ms


@pytest.fixture(scope="module")
def loaded_trie() -> PrefixTable:
    table = PrefixTable()
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        value = int(rng.integers(0, 2**32))
        length = int(rng.integers(8, 25))
        table.insert(Prefix.make(value, length), value)
    return table


def test_prefix_trie_lookup(benchmark, loaded_trie):
    """Longest-prefix match against 10k routes (per-packet cost)."""
    addrs = [int(x) for x in np.random.default_rng(2).integers(0, 2**32, 256)]

    def lookups():
        for a in addrs:
            loaded_trie.lookup(a)

    benchmark(lookups)


def test_prefix_compiled_batch_lookup(benchmark, loaded_trie):
    """Vectorised LPM: one NumPy batch of 4096 addresses vs 10k routes."""
    addrs = np.random.default_rng(2).integers(0, 2**32, 4096)
    compiled = loaded_trie.compile()

    benchmark(compiled.lookup_many, addrs)


def test_device_redirect_decision(benchmark):
    """The per-packet `wants` check with 1000 subscribers installed."""
    device, users = build_device(1000)
    owned = Packet.udp(IPv4Address.parse("172.16.0.1"),
                       IPv4Address(users[500].prefixes[0].base + 3))
    unowned = Packet.udp(IPv4Address.parse("172.16.0.1"),
                         IPv4Address.parse("172.16.9.9"))

    def check():
        device.wants(owned)
        device.wants(unowned)

    benchmark(check)


def test_device_two_stage_pipeline(benchmark):
    """Full owned-packet processing through a 4-component graph."""
    registry = OwnershipRegistry()
    user = NetworkUser("u", prefixes=[Prefix.parse("10.1.0.0/16")])
    registry.register(user)
    from repro.core import AdaptiveDevice, DeviceContext
    from repro.net import ASRole

    device = AdaptiveDevice(
        DeviceContext(asn=1, role=ASRole.STUB,
                      local_prefix=Prefix.parse("10.9.0.0/16")), registry)
    graph = ComponentGraph("bench")
    graph.chain(*[HeaderFilter(f"r{i}", HeaderMatch(proto=Protocol.TCP, dport=7))
                  for i in range(4)])
    device.install(user, dst_graph=graph)
    pkt = Packet.udp(IPv4Address.parse("10.8.0.1"), IPv4Address.parse("10.1.0.1"))
    benchmark(device.process, pkt, 0.0, None)


def test_simulator_event_throughput(benchmark):
    """Schedule+dispatch cost of 10k no-op events."""

    def run_events():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(i * 1e-6, int)
        sim.run()

    benchmark(run_events)


def _fat_line():
    """A 5-AS line with fat links (no drops), reusable across rounds.

    The fluid-drain queue empties as simulated time advances between
    rounds, so reuse is sound; only delivery counters accumulate.
    """
    fat = LinkParams(bandwidth=Mbps(10_000), delay=ms(1),
                     buffer_bytes=1 << 30)
    net = Network(TopologyBuilder.line(5), access=fat,
                  link_params_fn=lambda a, b: fat)
    return net, net.add_host(0), net.add_host(4)


@pytest.fixture(scope="module")
def scalar_line_net():
    return _fat_line()


@pytest.fixture(scope="module")
def batch_line_net():
    return _fat_line()


def test_packet_forwarding_path(benchmark, scalar_line_net):
    """End-to-end delivery of 500 packets over the prebuilt 5-AS line.

    Like for like with ``test_batch_forwarding_path``: same network,
    built outside the timed region, so their per-packet ratio measures
    the scalar vs batched data plane and nothing else.
    """
    net, a, b = scalar_line_net

    def run_net():
        before = b.received_packets
        start = net.sim.now
        for i in range(500):
            net.sim.schedule_at(start + i * 1e-4, a.send,
                                Packet.udp(a.address, b.address))
        net.run()
        assert b.received_packets - before == 500

    benchmark(run_net)


@pytest.mark.parametrize("batch_size", [1, 64, 1024, 16384])
def test_batch_forwarding_path(benchmark, batch_line_net, batch_size):
    """End-to-end delivery of one packet batch over the 5-AS line.

    Compare per-packet against ``test_packet_forwarding_path`` (the scalar
    pipeline): batch 1 is the SoA overhead floor, batch 1024 the target
    regime (the CI perf-smoke guards its per-packet ratio vs scalar).
    """
    net, a, b = batch_line_net

    def run_batch():
        src = np.full(batch_size, int(a.address), dtype=np.int64)
        before = b.received_packets
        a.send_batch(PacketBatch.udp(src, int(b.address)))
        net.run()
        assert b.received_packets - before == batch_size

    benchmark(run_batch)


def test_fluid_evaluation(benchmark):
    """Vectorised fluid evaluation: 500 flows on a 300-AS power law graph."""
    topo = TopologyBuilder.powerlaw(n=300, m=2, seed=3)
    fluid = FluidNetwork(topo)
    rng = np.random.default_rng(4)
    stubs = topo.stub_ases
    victim = stubs[0]
    flows = FlowSet([
        Flow(int(stubs[int(rng.integers(1, len(stubs)))]), victim, 1e6,
             kind="attack")
        for _ in range(500)
    ])
    fluid.evaluate(flows)  # warm the BFS cache like a sweep would
    benchmark(fluid.evaluate, flows)


def test_routing_table_construction(benchmark):
    """All-pairs next-hop computation for a 100-AS topology: a fresh
    routing resolves ``next_hop`` for every (src, dst) pair, so every
    lazy BFS tree is built inside the timed call."""
    topo = TopologyBuilder.powerlaw(n=100, m=2, seed=5)
    from repro.net import build_routing

    nodes = topo.as_numbers

    def all_pairs():
        routing = build_routing(topo)
        return [routing.next_hop(s, d) for s in nodes for d in nodes]

    benchmark(all_pairs)


@pytest.fixture(scope="module")
def sketch_traffic():
    """A zipf-ish source population over 64 source ASes, pre-encoded into
    int64 statistics flow keys, with per-packet sizes."""
    from repro.core.apps.statistics import encode_flow_key

    rng = np.random.default_rng(7)
    fan_in = 4096
    weights = 1.0 / np.arange(1, fan_in + 1) ** 1.1
    weights /= weights.sum()
    srcs = rng.choice(fan_in, size=16384, p=weights).astype(np.int64) + 1
    sizes = rng.integers(64, 1500, size=16384).astype(np.int64)
    keys = np.array([encode_flow_key(int(s) % 64, Protocol.UDP.value)
                     for s in srcs], dtype=np.int64)
    return keys, sizes


@pytest.fixture(scope="module")
def service_world():
    """A live :class:`ServiceFacade` serving 1000 subscribers, plus
    precomputed flow 4-tuples for its two regimes: unowned flows (the
    direct fast path) and owned flows (the two-stage pipeline)."""
    from repro.service import ManualClock, ServiceFacade

    facade = ServiceFacade(clock=ManualClock())
    for i in range(1000):
        user = NetworkUser(f"user-{i}", prefixes=[Prefix((i + 1) << 16, 16)])
        graph = ComponentGraph(f"svc:{user.user_id}")
        graph.chain(*[
            HeaderFilter(f"r{j}", HeaderMatch(proto=Protocol.TCP, dport=7))
            for j in range(2)
        ])
        facade.subscribe(user, dst_graph=graph)
    rng = np.random.default_rng(11)
    # 172.16/12 addresses are never owned by the 10/8 subscribers
    unowned = [(int(0xAC10_0000 + s), int(0xAC20_0000 + d))
               for s, d in zip(rng.integers(0, 1 << 16, 256),
                               rng.integers(0, 1 << 16, 256))]
    owned = [(int(0xAC10_0000 + s), int(((int(u) + 1) << 16) + 5))
             for s, u in zip(rng.integers(0, 1 << 16, 256),
                             rng.integers(0, 1000, 256))]
    return facade, unowned, owned


def test_service_check_fastpath(benchmark, service_world):
    """256 live checks of unowned flows: one cache probe + the shared
    PASS_DIRECT verdict each (the ≥100k checks/s load-harness regime)."""
    facade, unowned, _owned = service_world

    def run_checks():
        check = facade.check
        for src, dst in unowned:
            check(src, dst)

    benchmark(run_checks)


def test_service_check_pipeline(benchmark, service_world):
    """256 live checks of owned flows through packet materialisation and
    the two-stage pipeline (the redirected-traffic regime)."""
    facade, _unowned, owned = service_world

    def run_checks():
        check = facade.check
        for src, dst in owned:
            check(src, dst, dport=80)

    benchmark(run_checks)


def test_sketch_scalar_update(benchmark, sketch_traffic):
    """500 per-key ``add`` calls on a Count-Min flow-statistics backend."""
    from repro.core.flowstats import make_flow_stats

    keys, sizes = sketch_traffic
    pairs = list(zip(keys[:500].tolist(), sizes[:500].tolist()))
    stats = make_flow_stats("cmsketch", seed=7)

    def run_scalar():
        add = stats.add
        for key, size in pairs:
            add(key, 1, size)

    benchmark(run_scalar)


@pytest.mark.parametrize("batch_size", [64, 1024, 16384])
def test_sketch_batch_update(benchmark, sketch_traffic, batch_size):
    """One ``add_batch`` over ``batch_size`` of the same keys on the same
    Count-Min backend.

    Compare per key against ``test_sketch_scalar_update``: the CI
    perf-smoke guards the batch-1024 ratio via ``tools/bench.py
    --check-ratio sketch=MIN``.
    """
    from repro.core.flowstats import make_flow_stats

    keys, sizes = sketch_traffic
    keys, sizes = keys[:batch_size], sizes[:batch_size]
    stats = make_flow_stats("cmsketch", seed=7)

    benchmark(stats.add_batch, keys, nbytes=sizes)


@pytest.fixture(scope="module")
def policy_world():
    """A dropping/filtering graph (HeaderFilter -> PrefixBlacklist) and
    1024 mixed packets for the compiled walk."""
    from repro.core.components import ComponentContext, PrefixBlacklist

    def build() -> ComponentGraph:
        graph = ComponentGraph("bench-policy")
        graph.chain(
            HeaderFilter("f-udp", HeaderMatch(proto=Protocol.UDP,
                                              dport_not_in=(53,))),
            PrefixBlacklist("bl", [Prefix.parse("128.0.0.0/2")]),
        )
        return graph

    rng = np.random.default_rng(23)
    packets = [
        Packet.udp(IPv4Address(int(s)), IPv4Address(int(d)),
                   dport=int(p), size=int(z))
        for s, d, p, z in zip(rng.integers(0, 2**32, 1024),
                              rng.integers(0, 2**32, 1024),
                              rng.integers(0, 128, 1024),
                              rng.integers(64, 1500, 1024))
    ]
    ctx = ComponentContext(now=0.0, asn=1, is_transit=False,
                           local_prefix=Prefix.make(0, 8), stage="dest",
                           owner=None)
    return build, packets, ctx


@pytest.mark.parametrize("batch_size", [1, 1024])
def test_policy_compiled_walk(benchmark, policy_world, batch_size):
    """The compiled program's verdict walk over ``batch_size`` packets
    (the one walk a decision core runs)."""
    from repro.policy import compile_policy

    build, packets, ctx = policy_world
    process = compile_policy(build()).process
    subset = packets[:batch_size]

    def run_walk():
        for packet in subset:
            process(packet, ctx)

    benchmark(run_walk)

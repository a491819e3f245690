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
    """All-pairs next-hop computation for a 100-AS topology."""
    topo = TopologyBuilder.powerlaw(n=100, m=2, seed=5)
    from repro.net import build_routing

    benchmark(build_routing, topo)


@pytest.fixture(scope="module")
def sketch_traffic():
    """A zipf-ish source population with an AS resolver, as packets and as
    one SoA batch (the statistics collector's two input shapes)."""
    from repro.core.components import ComponentContext

    rng = np.random.default_rng(7)
    fan_in = 4096
    weights = 1.0 / np.arange(1, fan_in + 1) ** 1.1
    weights /= weights.sum()
    srcs = rng.choice(fan_in, size=16384, p=weights).astype(np.int64) + 1
    sizes = rng.integers(64, 1500, size=16384).astype(np.int64)
    dst = IPv4Address(10 << 24)
    packets = [Packet.udp(IPv4Address(int(s)), dst, size=int(z))
               for s, z in zip(srcs[:500], sizes[:500])]
    batch = PacketBatch.udp(srcs, int(dst))
    batch.size[:] = sizes
    ctx = ComponentContext(now=0.0, asn=1, is_transit=False,
                           local_prefix=Prefix.make(0, 8), stage="dest",
                           owner=None)
    resolver = lambda addr: int(addr) % 64  # noqa: E731 — 64 source ASes
    resolver_many = lambda a: np.asarray(a, dtype=np.int64) % 64  # noqa: E731
    return packets, batch, ctx, resolver, resolver_many


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
    """The exact per-packet Counter path: 500 scalar collector updates."""
    from repro.core.apps.statistics import TrafficMatrixCollector

    packets, _batch, ctx, resolver, _many = sketch_traffic
    collector = TrafficMatrixCollector(resolver=resolver, backend="exact")

    def run_scalar():
        for packet in packets:
            collector.process(packet, ctx)

    benchmark(run_scalar)


@pytest.mark.parametrize("batch_size", [64, 1024, 16384])
def test_sketch_batch_update(benchmark, sketch_traffic, batch_size):
    """One vectorised sketch-backed collector update of a whole batch.

    Compare per-packet against ``test_sketch_scalar_update`` (the exact
    per-packet Counter path): the CI perf-smoke guards the batch-1024
    ratio via ``tools/bench.py --check-ratio sketch=MIN``.
    """
    from repro.core.apps.statistics import TrafficMatrixCollector

    _packets, batch, ctx, resolver, resolver_many = sketch_traffic
    rows = np.arange(batch_size)
    collector = TrafficMatrixCollector(resolver=resolver,
                                       resolver_many=resolver_many,
                                       backend="cmsketch", seed=7)

    def run_batch():
        collector.process_batch(batch, rows, ctx)

    benchmark(run_batch)


@pytest.fixture(scope="module")
def policy_world():
    """A dropping/filtering graph (HeaderFilter -> PrefixBlacklist), 1024
    mixed packets, and the same burst as one SoA batch — the two inputs
    the policy compiler's programs and the interpreted walk share."""
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
    batch = PacketBatch.from_packets(packets)
    ctx = ComponentContext(now=0.0, asn=1, is_transit=False,
                           local_prefix=Prefix.make(0, 8), stage="dest",
                           owner=None)
    return build, packets, batch, ctx


@pytest.mark.parametrize("batch_size", [1, 1024])
def test_policy_interpreted_walk(benchmark, policy_world, batch_size):
    """The scalar interpreted graph walk over ``batch_size`` packets (the
    pre-compiler execution path, kept as the differential oracle)."""
    build, packets, _batch, ctx = policy_world
    graph = build()
    subset = packets[:batch_size]

    def run_walk():
        process = graph.process
        for packet in subset:
            process(packet, ctx)

    benchmark(run_walk)


@pytest.mark.parametrize("batch_size", [1, 1024])
def test_policy_compiled_batch(benchmark, policy_world, batch_size):
    """One vectorized batch-program run over ``batch_size`` rows.

    Compare per-packet against ``test_policy_interpreted_walk``: the CI
    perf-smoke guards the batch-1024 ratio via ``tools/bench.py
    --check-ratio policy=MIN``.
    """
    from repro.policy import compile_policy

    build, _packets, batch, ctx = policy_world
    compiled = compile_policy(build(), vet=True)
    rows = np.arange(batch_size)

    benchmark(compiled.run_batch, batch, rows, ctx)

"""PacketBatch and the batched data plane.

The batching contract: at batch size 1 the vectorised pipeline is
byte-identical to the scalar one — same host/router/link counters, same
registry snapshot (modulo the ``sim.batch*`` slot counters), same final
simulated clock.  Larger batches keep exact drop-tail admission and
counter totals while coarsening intra-batch departure spacing.
"""

import numpy as np
import pytest

from repro.core import ComponentGraph, NetworkUser, OwnershipRegistry
from repro.core.components import HeaderFilter, HeaderMatch
from repro.core.device import attach_device
from repro.errors import SimulationError
from repro.net import (
    IPv4Address,
    LinkParams,
    Link,
    Network,
    Node,
    Packet,
    PacketBatch,
    Protocol,
    Simulator,
    TopologyBuilder,
)
from repro.obs import scoped
from repro.util.units import Mbps, ms


class TestConstruction:
    def test_broadcast_scalars(self):
        b = PacketBatch(src=np.full(4, 100, dtype=np.int64), dst=200,
                        size=700, kind="attack")
        assert len(b) == 4
        assert list(b.dst) == [200] * 4
        assert b.total_bytes == 2800
        assert b.kind_counts() == {"attack": 4}

    def test_scalar_src_needs_length(self):
        with pytest.raises(SimulationError):
            PacketBatch(src=100, dst=200)

    def test_size_clamped_to_header(self):
        b = PacketBatch(src=np.array([1, 2]), dst=3, size=np.array([1, 999]))
        assert list(b.size) == [20, 999]

    def test_kind_vocabulary(self):
        b = PacketBatch(src=np.arange(3), dst=9,
                        kind=["legit", "attack", "legit"])
        assert b.kind_counts() == {"legit": 2, "attack": 1}
        assert b.bytes_by_kind() == {"legit": 1024, "attack": 512}

    def test_column_length_mismatch_raises(self):
        with pytest.raises(SimulationError):
            PacketBatch(src=np.arange(3), dst=np.arange(2))

    def test_round_trip_through_packets(self):
        src = [int(IPv4Address.parse("10.0.0.1")),
               int(IPv4Address.parse("10.0.0.2"))]
        b = PacketBatch(src=np.array(src), dst=int(IPv4Address.parse("10.1.0.9")),
                        proto=Protocol.TCP, dport=80, ttl=9, size=99,
                        kind=["legit", "attack"], flow_id=np.array([5, 6]))
        again = PacketBatch.from_packets(b.to_packets())
        for col in ("src", "dst", "size", "ttl", "proto", "sport", "dport",
                    "flags", "icmp", "flow_id"):
            assert list(getattr(again, col)) == list(getattr(b, col)), col
        assert again.kind_counts() == b.kind_counts()

    def test_select_and_concat(self):
        b = PacketBatch(src=np.arange(6), dst=9, kind=["a", "b"] * 3)
        evens = b.select(np.array([True, False] * 3))
        odds = b.select(np.array([False, True] * 3))
        assert list(evens.src) == [0, 2, 4]
        merged = PacketBatch.concat([evens, odds])
        assert sorted(merged.src) == list(range(6))
        assert merged.kind_counts() == b.kind_counts()

    def test_concat_empty(self):
        assert len(PacketBatch.concat([])) == 0


def _run_line(batched: bool, access=None, n_packets: int = 40):
    """Send the same staggered traffic scalar or as 1-packet batches."""
    with scoped() as reg:
        net = Network(TopologyBuilder.line(3), access=access or LinkParams())
        a = net.add_host(0)
        b = net.add_host(2)
        rng = np.random.default_rng(7)
        sizes = rng.integers(64, 1500, n_packets)
        for i in range(n_packets):
            kind = "legit" if i % 3 else "attack"
            when = i * 2e-4
            if batched:
                pb = PacketBatch.udp(np.array([int(a.address)]),
                                     int(b.address), size=int(sizes[i]),
                                     kind=kind)
                net.sim.schedule_at(when, a.send_batch, pb)
            else:
                pkt = Packet.udp(a.address, b.address, size=int(sizes[i]),
                                 kind=kind)
                net.sim.schedule_at(when, a.send, pkt)
        net.run()
        state = (
            b.received_packets, b.received_bytes,
            dict(b.received_by_kind), dict(b.received_bytes_by_kind),
            a.sent_packets,
            {asn: (r.forwarded_packets, r.forwarded_bytes,
                   r.delivered_packets, dict(r.drops))
             for asn, r in net.routers.items()},
            dict(net.global_drops), dict(net.byte_hops_by_kind),
            round(net.sim.now, 12),
        )
        snap = {k: v for k, v in reg.snapshot().items()
                if not k.startswith("sim.batch")}
    return state, snap


class TestBatchOneEquivalence:
    def test_uncongested_byte_identical(self):
        scalar_state, scalar_snap = _run_line(batched=False)
        batch_state, batch_snap = _run_line(batched=True)
        assert batch_state == scalar_state
        assert batch_snap == scalar_snap

    def test_congested_byte_identical(self):
        """Queue-full drops and their counters agree at batch size 1."""
        thin = LinkParams(bandwidth=Mbps(1), delay=ms(2), buffer_bytes=4000)
        scalar_state, scalar_snap = _run_line(batched=False, access=thin,
                                              n_packets=80)
        batch_state, batch_snap = _run_line(batched=True, access=thin,
                                            n_packets=80)
        assert scalar_state[0] < scalar_state[4]  # uplink tail drops happened
        assert batch_state == scalar_state
        assert batch_snap == scalar_snap


class _Sink(Node):
    def __init__(self):
        super().__init__("sink")
        self.packets = 0

    def receive(self, packet, link):
        self.packets += 1

    def receive_batch(self, batch, link):
        self.packets += len(batch)


class TestTransmitBatchDropParity:
    def _sizes(self):
        return np.random.default_rng(11).integers(100, 2000, 64)

    def _scalar_accepts(self, sizes):
        with scoped():
            sim = Simulator()
            link = Link(_Sink(), _Sink(), bandwidth=Mbps(10), delay=ms(1),
                        buffer_bytes=8000)
            accepted = [link.send(Packet.udp(IPv4Address(1), IPv4Address(2),
                                             size=int(s)), sim)
                        for s in sizes]
            stats = (link.tx_packets, link.tx_bytes, link.dropped_packets,
                     link.dropped_bytes)
        return accepted, stats

    def _batch_accepts(self, sizes):
        with scoped():
            sim = Simulator()
            link = Link(_Sink(), _Sink(), bandwidth=Mbps(10), delay=ms(1),
                        buffer_bytes=8000)
            batch = PacketBatch.udp(np.full(len(sizes), 1, dtype=np.int64), 2,
                                    size=sizes.astype(np.int64))
            batch.flow_id = np.arange(len(sizes), dtype=np.int64)
            rejected = link.transmit_batch(batch, sim)
            rejected_ids = set() if rejected is None else {
                int(x) for x in rejected.flow_id}
            accepted = [i not in rejected_ids for i in range(len(sizes))]
            stats = (link.tx_packets, link.tx_bytes, link.dropped_packets,
                     link.dropped_bytes)
        return accepted, stats

    def test_same_admission_pattern_and_counters(self):
        """Exact drop-tail: the batch admits precisely the packets the
        scalar per-packet loop admits (including post-drop re-admission of
        smaller packets), with equal byte accounting."""
        sizes = self._sizes()
        scalar_accepted, scalar_stats = self._scalar_accepts(sizes)
        batch_accepted, batch_stats = self._batch_accepts(sizes)
        assert sum(scalar_accepted) < len(sizes)  # buffer did overflow
        assert batch_accepted == scalar_accepted
        assert batch_stats == scalar_stats

    def test_all_accepted_returns_none(self):
        with scoped():
            sim = Simulator()
            sink = _Sink()
            link = Link(_Sink(), sink, bandwidth=Mbps(10), delay=ms(1),
                        buffer_bytes=1 << 20)
            batch = PacketBatch.udp(np.full(10, 1, dtype=np.int64), 2)
            assert link.transmit_batch(batch, sim) is None
            sim.run()
            assert sink.packets == 10

    def test_empty_batch_is_noop(self):
        with scoped():
            sim = Simulator()
            link = Link(_Sink(), _Sink(), bandwidth=Mbps(10), delay=ms(1))
            empty = PacketBatch(src=np.empty(0, dtype=np.int64),
                                dst=np.empty(0, dtype=np.int64))
            assert link.transmit_batch(empty, sim) is None
            assert link.tx_packets == 0


class TestBatchDropReasons:
    def _net(self, **kw):
        net = Network(TopologyBuilder.line(3), **kw)
        return net, net.add_host(0), net.add_host(2)

    def test_no_route(self):
        with scoped():
            net, a, b = self._net()
            outside = int(IPv4Address.parse("172.16.0.1"))
            batch = PacketBatch.udp(np.full(3, int(a.address), dtype=np.int64),
                                    outside)
            net.routers[0].receive_batch(batch, None)
            assert net.routers[0].drops["no-route"] == 3
            assert net.global_drops["no-route"] == 3

    def test_ttl_expired(self):
        with scoped():
            net, a, b = self._net()
            batch = PacketBatch.udp(np.full(2, int(a.address), dtype=np.int64),
                                    int(b.address), ttl=1)
            net.routers[0].receive_batch(batch, None)
            assert net.routers[0].drops["ttl-expired"] == 2

    def test_no_host(self):
        with scoped():
            net, a, b = self._net()
            ghost = int(net.topology.prefix_of(0).base + 250)
            batch = PacketBatch.udp(np.full(2, int(a.address), dtype=np.int64),
                                    ghost)
            net.routers[0].receive_batch(batch, None)
            assert net.routers[0].drops["no-host"] == 2

    def test_queue_full_counts_match_delivery(self):
        """A batch larger than the access buffer splits exactly into
        delivered + queue-full."""
        with scoped():
            thin = LinkParams(bandwidth=Mbps(1), delay=ms(1),
                              buffer_bytes=64_000)
            net, a, b = self._net(access=thin)
            n = 1024
            batch = PacketBatch.udp(np.full(n, int(a.address), dtype=np.int64),
                                    int(b.address))
            sent = a.send_batch(batch)
            net.run()
            assert sent == 64_000 // 512  # uplink buffer in 512-byte packets
            assert b.received_packets == sent

    def test_mixed_destinations_split_by_next_hop(self):
        """One batch fans out to a local host and a remote AS correctly."""
        with scoped():
            net = Network(TopologyBuilder.star(3))
            hub_host = net.add_host(0)
            leaf_host = net.add_host(1)
            src = np.full(4, int(leaf_host.address), dtype=np.int64)
            dst = np.array([int(hub_host.address), int(leaf_host.address)] * 2,
                           dtype=np.int64)
            batch = PacketBatch.udp(src, dst)
            net.routers[1].receive_batch(batch, None)
            net.run()
            assert hub_host.received_packets == 2
            assert leaf_host.received_packets == 2


class TestBatchThroughDevice:
    """A router with an attached adaptive device decides every packet of
    an arriving batch on the scalar path, so a burst and the same packets
    sent one by one leave the same delivery, drop and device counters."""

    def _run(self, batched):
        with scoped():
            net = Network(TopologyBuilder.line(3))
            a, b = net.add_host(0), net.add_host(2)
            registry = OwnershipRegistry()
            victim = NetworkUser("victim", prefixes=[net.topology.prefix_of(2)])
            registry.register(victim)
            device = attach_device(net, 1, registry)
            graph = ComponentGraph("drop-dns")
            graph.chain(HeaderFilter("dns", HeaderMatch(proto=Protocol.UDP,
                                                        dport=53)))
            device.install(victim, dst_graph=graph)
            dport = np.where(np.arange(48) % 3 == 0, 53, 80)
            batch = PacketBatch.udp(
                np.full(48, int(a.address), dtype=np.int64), int(b.address),
                dport=dport, kind=["attack" if d == 53 else "legit"
                                   for d in dport])
            if batched:
                a.send_batch(batch)
            else:
                for packet in batch.to_packets():
                    a.send(packet)
            net.run()
            router = net.routers[1]
            return (b.received_packets, dict(b.received_by_kind),
                    router.drops["adaptive-device"],
                    dict(router.drops_by_kind),
                    (device.redirected, device.dropped,
                     device.flow_cache_hits, device.flow_cache_misses))

    def test_burst_matches_packet_by_packet(self):
        burst = self._run(batched=True)
        assert burst == self._run(batched=False)
        assert burst[:3] == (32, {"legit": 32}, 16)
        assert burst[4] == (48, 16, 94, 2)

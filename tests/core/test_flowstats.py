"""Flow-statistics backends and the collector that drives them.

Covers the :class:`~repro.core.flowstats.FlowStatsBackend` contract for
all four kinds, the exact backend's byte-identical-ordering guarantee
(batch vs scalar), the sketch backends' constant-state/heavy-hitter
behaviour, and the TrafficMatrixCollector's backends and resolver LRU.
"""

import numpy as np
import pytest

from repro.core.apps.statistics import (
    TrafficMatrixCollector,
    decode_flow_key,
    encode_flow_key,
)
from repro.core.components import ComponentContext
from repro.core.flowstats import (
    BACKEND_KINDS,
    ExactFlowStats,
    FlowStatsBackend,
    make_flow_stats,
)
from repro.errors import ReproError
from repro.net import IPv4Address, Packet, Prefix, Protocol
from repro.obs import scoped


def _stream(seed, n=3_000, fan_in=400):
    rng = np.random.default_rng(seed)
    w = 1.0 / np.arange(1, fan_in + 1) ** 1.2
    w /= w.sum()
    keys = rng.choice(fan_in, size=n, p=w).astype(np.uint64)
    sizes = rng.integers(64, 1500, size=n).astype(np.int64)
    return keys, sizes


class TestFlowKeyEncoding:
    def test_round_trip(self):
        for asn, proto in [(0, Protocol.UDP), (7, Protocol.TCP),
                           (2**31, Protocol.ICMP)]:
            key = encode_flow_key(asn, proto.value)
            assert decode_flow_key(key) == (asn, proto.name)

    def test_unresolved_asn_round_trips_as_minus_one(self):
        key = encode_flow_key(-1, Protocol.UDP.value)
        assert decode_flow_key(key) == (-1, "UDP")


class TestBackendContract:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_satisfies_protocol(self, kind):
        assert isinstance(make_flow_stats(kind, seed=1), FlowStatsBackend)

    def test_ready_backend_passes_through(self):
        stats = ExactFlowStats()
        assert make_flow_stats(stats) is stats

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            make_flow_stats("hyperloglog")

    def test_exact_takes_no_params(self):
        with pytest.raises(ReproError):
            make_flow_stats("exact", width=64)


class TestExactBackend:
    def test_batch_matches_scalar_including_order(self):
        keys, sizes = _stream(1)
        scalar, batched = ExactFlowStats(), ExactFlowStats()
        for k, s in zip(keys.tolist(), sizes.tolist()):
            scalar.add(k, 1, s)
        batched.add_batch(keys, nbytes=sizes)
        assert list(scalar.items()) == list(batched.items())
        assert scalar.updates == batched.updates

    def test_state_grows_with_keys(self):
        small, big = ExactFlowStats(), ExactFlowStats()
        small.add_batch(np.arange(10, dtype=np.uint64))
        big.add_batch(np.arange(10_000, dtype=np.uint64))
        assert big.state_bytes() > 10 * small.state_bytes()

    def test_merge_sums_counts(self):
        a, b = ExactFlowStats(), ExactFlowStats()
        a.add(1, 2, 100)
        b.add(1, 3, 50)
        b.add(2, 1, 10)
        a.merge(b)
        assert a.packet_count(1) == 5 and a.byte_count(1) == 150
        assert a.packet_count(2) == 1


class TestSketchBackends:
    @pytest.mark.parametrize("kind", ["cmsketch", "countsketch"])
    def test_state_constant_across_fan_in(self, kind):
        small = make_flow_stats(kind, seed=1)
        big = make_flow_stats(kind, seed=1)
        small.add_batch(np.arange(100, dtype=np.uint64))
        big.add_batch(np.arange(50_000, dtype=np.uint64))
        assert small.state_bytes() == big.state_bytes()

    def test_cmsketch_never_underestimates(self):
        keys, sizes = _stream(2)
        stats = make_flow_stats("cmsketch", seed=3)
        stats.add_batch(keys, nbytes=sizes)
        uniq, counts = np.unique(keys, return_counts=True)
        for k, c in zip(uniq.tolist(), counts.tolist()):
            assert stats.packet_count(k) >= c

    @pytest.mark.parametrize("kind", ["cmsketch", "countsketch"])
    def test_top_recovers_heavy_hitters(self, kind):
        keys, sizes = _stream(3)
        stats = make_flow_stats(kind, seed=4)
        stats.add_batch(keys, nbytes=sizes)
        uniq, counts = np.unique(keys, return_counts=True)
        true_top = {int(k) for k, _ in sorted(
            zip(uniq.tolist(), counts.tolist()),
            key=lambda kv: (-kv[1], kv[0]))[:10]}
        found = {k for k, _ in stats.top(10, by="packets")}
        assert len(found & true_top) >= 9

    @pytest.mark.parametrize("kind", ["cmsketch", "countsketch"])
    def test_enumeration_bounded_by_track(self, kind):
        stats = make_flow_stats(kind, seed=5, track=16)
        stats.add_batch(np.arange(10_000, dtype=np.uint64))
        assert len(list(stats.items())) <= 16

    def test_merge_requires_same_kind(self):
        with pytest.raises(ReproError):
            make_flow_stats("cmsketch", seed=1).merge(
                make_flow_stats("countsketch", seed=1))

    def test_scalar_and_batch_sketch_tables_agree(self):
        keys, sizes = _stream(4, n=800)
        a = make_flow_stats("cmsketch", seed=6)
        b = make_flow_stats("cmsketch", seed=6)
        a.add_batch(keys, nbytes=sizes)
        for k, s in zip(keys.tolist(), sizes.tolist()):
            b.add(k, 1, s)
        assert np.array_equal(a.packet_sketch.table, b.packet_sketch.table)
        assert np.array_equal(a.byte_sketch.table, b.byte_sketch.table)

    def test_bloom_counts_but_cannot_enumerate(self):
        keys, sizes = _stream(5)
        stats = make_flow_stats("bloom", seed=7)
        stats.add_batch(keys, nbytes=sizes)
        assert list(stats.items()) == [] and stats.top(5) == []
        uniq, counts = np.unique(keys, return_counts=True)
        for k, c in zip(uniq.tolist()[:50], counts.tolist()[:50]):
            assert stats.packet_count(k) >= c


def _ctx(now=0.0):
    return ComponentContext(now=now, asn=1, is_transit=False,
                            local_prefix=Prefix.make(0, 8), stage="dest",
                            owner=None)


def _traffic(n=400, hosts=37):
    rng = np.random.default_rng(11)
    srcs = rng.integers(1, hosts + 1, n).astype(np.int64)
    sizes = rng.integers(64, 1500, n).astype(np.int64)
    protos = np.where(rng.random(n) < 0.5, Protocol.TCP.value,
                      Protocol.UDP.value).astype(np.int64)
    return [Packet(src=IPv4Address(int(s)), dst=IPv4Address(10 << 24),
                   proto=Protocol(int(p)), size=int(z))
            for s, p, z in zip(srcs, protos, sizes)]


class TestCollectorParity:
    def test_resolver_lru_hits_and_misses(self):
        calls = []

        def resolver(addr):
            calls.append(addr)
            return 7

        with scoped():
            collector = TrafficMatrixCollector(resolver=resolver)
            pkt = Packet(src=IPv4Address(42), dst=IPv4Address(10 << 24),
                         proto=Protocol.UDP, size=100)
            for _ in range(5):
                collector.process(pkt, _ctx())
            assert len(calls) == 1  # one miss, four LRU hits
            assert collector.resolver_cache_misses == 1
            assert collector.resolver_cache_hits == 4

    def test_lru_capacity_evicts(self):
        with scoped():
            collector = TrafficMatrixCollector(
                resolver=lambda a: 1, resolver_cache=2)
            for addr in (1, 2, 3, 1):  # 1 evicted by 3, re-resolved
                collector.process(
                    Packet(src=IPv4Address(addr), dst=IPv4Address(9),
                           proto=Protocol.UDP, size=10), _ctx())
            assert collector.resolver_cache_misses == 4

    @pytest.mark.parametrize("kind", ["cmsketch", "countsketch"])
    def test_sketch_backend_counts_match_exact_totals(self, kind):
        packets = _traffic()
        with scoped():
            exact = TrafficMatrixCollector(resolver=lambda a: int(a) % 5)
            sk = TrafficMatrixCollector(
                resolver=lambda a: int(a) % 5, backend=kind, seed=9)
            for p in packets:
                exact.process(p, _ctx())
                sk.process(p, _ctx())
            # the handful of (asn x proto) keys are far below capacity:
            # sketch estimates are exact here
            for key, pkts, nbytes in exact.stats.items():
                assert sk.stats.packet_count(key) == pkts
                assert sk.stats.byte_count(key) == nbytes

"""The pure-observer batch fast path vs the scalar walk.

When every installed stage graph is a PASS-chain of batch-capable
observers (no drops, no mutations), the policy compiler lowers it to an
``OBSERVER_BATCH`` program, and ``AdaptiveDevice.process_batch`` (through
:meth:`repro.service.core.DecisionCore.decide_many`) runs one
``process_batch`` call per component instead of the per-packet verdict
loop.  Property under test: the fast path leaves component state,
collector counters and the metrics registry identical to the per-packet
reference — and never falls back to the scalar ``ComponentGraph.process``
walk.
"""

import hashlib
import json

import numpy as np

from repro.core import ComponentGraph
from repro.core.apps.statistics import TrafficMatrixCollector
from repro.core.components import (
    HeaderFilter,
    HeaderMatch,
    StatisticsCollector,
)
from repro.net import PacketBatch, Protocol
from repro.obs import scoped
from repro.scenario.devices import build_device

N_SUBSCRIBERS = 4
N_PACKETS = 300


def _resolver(addr):
    return int(addr) % 3


def _resolver_many(addrs):
    return np.asarray(addrs, dtype=np.int64) % 3


def _observer_device(vectorised=False):
    device, users = build_device(N_SUBSCRIBERS, with_services=False)
    for user in users:
        graph = ComponentGraph(f"obs:{user.user_id}")
        graph.chain(StatisticsCollector(),
                    TrafficMatrixCollector(
                        resolver=_resolver,
                        resolver_many=_resolver_many if vectorised else None))
        device.install(user, dst_graph=graph)
    return device, users


def _make_batch():
    rng = np.random.default_rng(77)
    n = N_PACKETS
    owned = (rng.integers(1, N_SUBSCRIBERS + 1, n) << 16) \
        + rng.integers(1, 2**16, n)
    outside = (172 << 24) + (16 << 16) + rng.integers(1, 2**16, n)
    dst = np.where(rng.random(n) < 0.7, owned, outside)
    proto = np.where(rng.random(n) < 0.5, Protocol.TCP.value,
                     Protocol.UDP.value)
    batch = PacketBatch(src=outside.astype(np.int64),
                        dst=dst.astype(np.int64),
                        proto=proto.astype(np.int64),
                        size=rng.integers(64, 1500, n).astype(np.int64))
    return batch


def _component_state(device):
    state = []
    for instance in device.services.values():
        for graph in (instance.src_graph, instance.dst_graph):
            if graph is None:
                continue
            for comp in graph.components():
                if isinstance(comp, StatisticsCollector):
                    state.append((comp.processed, comp.packets_by_proto,
                                  comp.bytes_by_proto,
                                  comp.rate.total(0.0),
                                  comp.byte_rate.total(0.0)))
                elif isinstance(comp, TrafficMatrixCollector):
                    state.append((comp.processed, dict(comp.packets),
                                  dict(comp.bytes)))
    return state


def _run(batched, vectorised=False):
    with scoped() as reg:
        device, _ = _observer_device(vectorised=vectorised)
        batch = _make_batch()
        if batched:
            # the fast path must never take the scalar graph walk
            walks = []
            original = ComponentGraph.process
            ComponentGraph.process = (  # type: ignore[method-assign]
                lambda self, p, c: walks.append(1) or original(self, p, c))
            try:
                passed, dropped = device.process_batch(batch, 0.0, None)
            finally:
                ComponentGraph.process = original  # type: ignore[method-assign]
            assert not walks, "observer batch fell back to the scalar walk"
            assert passed is not None and len(passed) == N_PACKETS
            assert dropped is None
        else:
            for packet in batch.to_packets():
                if device.wants(packet):
                    assert device.process(packet, 0.0, None) is not None
        return _component_state(device), reg.snapshot(), device.redirected


class TestObserverFastPath:
    def test_batch_matches_scalar_state_and_metrics(self):
        assert _run(batched=True) == _run(batched=False)

    def test_vectorised_resolver_same_state_skips_lru_counters(self):
        """``resolver_many`` bypasses the per-address LRU entirely, so the
        hit/miss counters stay at zero on the vectorised path (documented
        in ``TrafficMatrixCollector``); every other metric and all
        component state still match the scalar reference."""
        state, snap, redirected = _run(batched=True, vectorised=True)
        ref_state, ref_snap, ref_redirected = _run(batched=False)
        assert (state, redirected) == (ref_state, ref_redirected)
        lru = [k for k in ref_snap if k.startswith("stats.resolver_cache_")]
        assert lru and all(snap.pop(k) == 0 for k in lru)
        for k in lru:
            ref_snap.pop(k)
        assert snap == ref_snap

    def test_observers_saw_traffic(self):
        state, _, redirected = _run(batched=True)
        assert redirected > 0
        assert any(s[0] > 0 for s in state)

    def test_mixed_deployment_still_correct(self):
        """One subscriber with a dropping filter: its flows take the
        scalar walk, the pure-observer subscribers keep the fast path,
        and state still matches the all-scalar reference."""

        def build(batched):
            with scoped() as reg:
                device, users = build_device(N_SUBSCRIBERS,
                                             with_services=False)
                for i, user in enumerate(users):
                    graph = ComponentGraph(f"svc:{user.user_id}")
                    if i == 0:
                        graph.chain(StatisticsCollector(),
                                    HeaderFilter("f", HeaderMatch(
                                        proto=Protocol.TCP, dport=7)))
                    else:
                        graph.chain(StatisticsCollector())
                    device.install(user, dst_graph=graph)
                batch = _make_batch()
                if batched:
                    device.process_batch(batch, 0.0, None)
                else:
                    for packet in batch.to_packets():
                        if device.wants(packet):
                            device.process(packet, 0.0, None)
                snapshot = hashlib.sha256(json.dumps(
                    reg.snapshot(), sort_keys=True).encode()).hexdigest()
                return _component_state(device), snapshot

        assert build(True) == build(False)

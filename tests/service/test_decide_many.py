"""``DecisionCore.decide_many`` on a bare core (no device, StatCell
counters) against the per-packet reference loop.

The reference is the scalar path — ``wants``, then ``process`` (which is
``flow_entry`` + ``run_stages``) — over the same rows.  Both stage
orders run: in this world a flow from ``a`` to ``b`` meets ``a``'s
source-stage filter and ``b``'s destination-stage filter, so the order
decides which graph sees which packets.  The ``liar`` user owns both
ends of one flow and its source-stage graph rewrites the destination,
so under ``strict=False`` its first packet disables the service, the
packet is restored, and the same owner's destination stage is skipped.
"""

import json

import numpy as np
import pytest

from repro.core import ComponentGraph, DeviceContext, NetworkUser, OwnershipRegistry
from repro.core.components import (
    Capabilities,
    Component,
    HeaderFilter,
    HeaderMatch,
    StatisticsCollector,
    Verdict,
)
from repro.net import ASRole, IPv4Address, PacketBatch, Prefix, Protocol
from repro.obs import scoped
from repro.service.core import DecisionCore
from tests.core.test_device_batch import N_SUBSCRIBERS, _make_batch

CTX = DeviceContext(asn=1, role=ASRole.STUB,
                    local_prefix=Prefix.parse("192.168.0.0/16"))

A, B, LIAR = (10 << 24) + (1 << 16), (10 << 24) + (2 << 16), (10 << 24) + (3 << 16)
OUTSIDE = (172 << 24) + (16 << 16)


class LyingMutator(Component):
    """Declares itself benign but rewrites the destination address."""

    capabilities = Capabilities()

    def process(self, packet, ctx):
        packet.dst = IPv4Address(OUTSIDE + 99)
        return Verdict.PASS


def _graph(name, *components):
    graph = ComponentGraph(name)
    graph.chain(*components)
    return graph


def _core(stage_order):
    """A bare core serving ``a``, ``b``, ``liar`` and the subscribers of
    tests/core/test_device_batch.py's traffic."""
    registry = OwnershipRegistry()
    core = DecisionCore(CTX, registry, strict=False, stage_order=stage_order)
    a = NetworkUser("a", prefixes=[Prefix(A, 16)])
    b = NetworkUser("b", prefixes=[Prefix(B, 16)])
    liar = NetworkUser("liar", prefixes=[Prefix(LIAR, 16)])
    for user in (a, b, liar):
        registry.register(user)
    core.install(a, src_graph=_graph(
        "a-src", StatisticsCollector("a-src-stats"),
        HeaderFilter("a-tcp7", HeaderMatch(proto=Protocol.TCP, dport=7))),
        dst_graph=_graph("a-dst", StatisticsCollector("a-dst-stats")))
    core.install(b, src_graph=_graph("b-src", StatisticsCollector("b-src-stats")),
                 dst_graph=_graph(
                     "b-dst",
                     HeaderFilter("b-udp53", HeaderMatch(proto=Protocol.UDP,
                                                         dport=53)),
                     StatisticsCollector("b-dst-stats")))
    core.install(liar, src_graph=_graph("liar-src", LyingMutator("lie")),
                 dst_graph=_graph("liar-dst", StatisticsCollector("liar-stats")))
    for i in range(N_SUBSCRIBERS):
        user = NetworkUser(f"user-{i}", prefixes=[Prefix((i + 1) << 16, 16)])
        registry.register(user)
        core.install(user, dst_graph=_graph(
            f"svc:{user.user_id}",
            HeaderFilter("r", HeaderMatch(proto=Protocol.TCP, dport=7))))
    return core


def _cross_owner_batch():
    """Flows among a, b, liar and outside, repeats in shuffled order."""
    rng = np.random.default_rng(5)
    ends = [A, B, OUTSIDE]
    flows = [(LIAR + 1, LIAR + 2, Protocol.UDP.value, 80)]
    for s in ends:
        for d in ends:
            for proto, dport in ((Protocol.TCP.value, 7),
                                 (Protocol.UDP.value, 53),
                                 (Protocol.UDP.value, 80)):
                flows.append((s + 1, d + 2, proto, dport))
    picks = rng.integers(0, len(flows), 300)
    picks[:3] = 0  # the liar's flow leads, then repeats
    cols = np.array([flows[k] for k in picks], dtype=np.int64).T
    return PacketBatch(src=cols[0], dst=cols[1], proto=cols[2], dport=cols[3],
                       size=rng.integers(64, 1500, len(picks)),
                       flow_id=np.arange(len(picks), dtype=np.int64))


BATCHES = {
    "cross-owner": _cross_owner_batch,
    "device-traffic": lambda: _make_batch(None),
    "device-traffic-shuffled": lambda: _make_batch(3),
}


def _outcome(core, batch, batched):
    if batched:
        passed, dropped = core.decide_many(batch, 0.0, None)
        out = [b for b in (passed, dropped) if b is not None]
        columns = PacketBatch.concat(out)
        dropped_ids = set() if dropped is None else set(dropped.flow_id.tolist())
    else:
        dropped_ids = set()
        for i, packet in enumerate(batch.to_packets()):
            if core.wants(packet):
                result = core.process(packet, 0.0, None)
                if result is None:
                    dropped_ids.add(int(batch.flow_id[i]))
                else:
                    batch.write_back(i, result)
        columns = batch
    order = np.argsort(columns.flow_id)
    headers = [columns.src[order].tolist(), columns.dst[order].tolist()]
    counters = [cell.value for cell in (
        core.m_redirected, core.m_dropped, core.m_safety_disables,
        core.m_fc_hits, core.m_fc_misses)]
    disabled = sorted(uid for uid, inst in core.services.items()
                      if inst.disabled_for_violation)
    return (sorted(dropped_ids), headers, counters, list(core.flow_cache),
            disabled)


def _run(stage_order, make_batch, batched):
    with scoped() as reg:
        core = _core(stage_order)
        outcome = _outcome(core, make_batch(), batched)
        return outcome, json.dumps(reg.snapshot(), sort_keys=True)


@pytest.mark.parametrize("stage_order", ["src-first", "dst-first"])
@pytest.mark.parametrize("name", sorted(BATCHES))
def test_decide_many_matches_scalar_loop(stage_order, name):
    make_batch = BATCHES[name]
    assert _run(stage_order, make_batch, batched=True) \
        == _run(stage_order, make_batch, batched=False)


def test_stage_order_changes_the_outcome():
    """The reversal is observable in this world (a packet one stage drops
    never reaches the other stage's collectors), so the parity above
    checks the batch side's stage order, not a no-op."""
    _, src_first = _run("src-first", _cross_owner_batch, batched=True)
    _, dst_first = _run("dst-first", _cross_owner_batch, batched=True)
    assert src_first != dst_first


def test_liar_is_contained_on_the_residue_path():
    (dropped, headers, counters, _, disabled), _ = _run(
        "src-first", _cross_owner_batch, batched=True)
    assert disabled == ["liar"]
    assert counters[2] == 1  # one safety disable
    assert OUTSIDE + 99 not in headers[1]  # the rewrite was undone

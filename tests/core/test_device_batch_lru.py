"""Batch vs scalar flow-cache parity across cache capacities.

``AdaptiveDevice.process_batch`` must leave the flow cache exactly as the
router's per-packet ``wants``/``process`` loop would: same hit and miss
counts, same LRU order, same verdicts — including when a batch holds
more new flows than the cache has room for, which makes the per-packet
loop evict mid-batch.  Each example warms the cache through the scalar
loop, then sends 2-3 consecutive batches drawn from a fixed flow pool.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import PacketBatch, Protocol
from repro.obs import scoped
from repro.scenario.devices import build_device

N_SUBSCRIBERS = 4
N_FLOWS = 80


def _flow(k):
    """Flow ``k`` of the pool: owned dst, owned src or unowned (k % 3);
    the first ``N_SUBSCRIBERS`` flows are owned-dst flows, one per user."""
    lane = 0 if k < N_SUBSCRIBERS else k % 3
    owned = ((k % N_SUBSCRIBERS + 1) << 16) + k + 1
    outside = (172 << 24) + (16 << 16) + k + 1
    src = owned if lane == 1 else outside
    dst = owned if lane == 0 else outside + 1000
    proto = Protocol.TCP if k % 2 else Protocol.UDP
    dport = 7 if k % 5 == 1 else 80  # TCP to dport 7 is dropped
    return src, dst, proto.value, dport


def _batch(flow_ids):
    cols = list(zip(*(_flow(k) for k in flow_ids)))
    n = len(flow_ids)
    return PacketBatch(src=np.array(cols[0], dtype=np.int64),
                       dst=np.array(cols[1], dtype=np.int64),
                       proto=np.array(cols[2], dtype=np.int64),
                       dport=np.array(cols[3], dtype=np.int64),
                       flow_id=np.arange(n, dtype=np.int64))


def _scalar(device, batch):
    verdicts = []
    for packet in batch.to_packets():
        if device.wants(packet):
            verdicts.append(device.process(packet, 0.0, None) is not None)
        else:
            verdicts.append(True)
    return verdicts


def _batched(device, batch):
    _, dropped = device.process_batch(batch, 0.0, None)
    gone = set() if dropped is None else {int(i) for i in dropped.flow_id}
    return [i not in gone for i in range(len(batch))]


def _run(capacity, warm, batches, batched):
    with scoped() as reg:
        device, _ = build_device(N_SUBSCRIBERS)
        device._core.flow_cache_capacity = capacity
        if warm:
            _scalar(device, _batch(warm))
        trail = []
        for flow_ids in batches:
            batch = _batch(flow_ids)
            verdicts = (_batched if batched else _scalar)(device, batch)
            trail.append((verdicts, list(device._flow_cache)))
        return trail, json.dumps(reg.snapshot(), sort_keys=True)


flow_ids = st.lists(st.integers(0, N_FLOWS - 1), min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(capacity=st.integers(1, 64),
       warm=st.lists(st.integers(0, N_FLOWS - 1), max_size=64),
       batches=st.lists(flow_ids, min_size=2, max_size=3))
# a full cache of owned flows, then a new flow followed by the LRU flow:
# the per-packet loop evicts the LRU flow and misses it again
@example(capacity=4, warm=[0, 1, 2, 3], batches=[[N_FLOWS - 1, 0], [1]])
# no eviction, but the LRU order must follow each flow's last packet
@example(capacity=16, warm=[0, 1, 2, 3], batches=[[N_FLOWS - 1, 0, 3], [2]])
def test_batch_matches_scalar_loop(capacity, warm, batches):
    assert _run(capacity, warm, batches, batched=True) \
        == _run(capacity, warm, batches, batched=False)

"""The device's batched redirect path vs the scalar reference.

Property: ``process_batch`` over any permutation of a batch records a
byte-identical registry snapshot and the same per-packet verdicts as the
scalar ``wants``/``process`` loop the router runs — and that equality
holds when the comparison fans out through :func:`parallel_map` or a raw
process pool.  Flow-cache parity across capacities, evictions included,
is the hypothesis property in test_device_batch_lru.py.
"""

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.experiments.common import parallel_map
from repro.net import PacketBatch, Protocol
from repro.obs import scoped
from repro.scenario.devices import build_device

N_SUBSCRIBERS = 30
N_PACKETS = 200


def _make_batch(perm_seed):
    """Deterministic mixed traffic; ``flow_id`` = original index so drops
    can be mapped back through any permutation."""
    rng = np.random.default_rng(123)
    n = N_PACKETS
    # thirds: owned dst (subscriber /16s), owned src, unowned
    owned_dst = (rng.integers(1, N_SUBSCRIBERS + 1, n) << 16) \
        + rng.integers(1, 2**16, n)
    outside = (172 << 24) + (16 << 16) + rng.integers(1, 2**16, n)
    lane = rng.integers(0, 3, n)
    src = np.where(lane == 1, owned_dst, outside)
    dst = np.where(lane == 0, owned_dst, np.roll(outside, 1))
    proto = np.where(rng.random(n) < 0.5, Protocol.TCP.value,
                     Protocol.UDP.value)
    dport = np.where(rng.random(n) < 0.3, 7, 80)  # dport 7 TCP gets dropped
    batch = PacketBatch(src=src.astype(np.int64), dst=dst.astype(np.int64),
                        proto=proto.astype(np.int64),
                        dport=dport.astype(np.int64),
                        flow_id=np.arange(n, dtype=np.int64))
    if perm_seed is not None:
        perm = np.random.default_rng(perm_seed).permutation(n)
        batch = batch.select(perm)
    return batch


def _batch_outcome(perm_seed):
    """Pool-worker entry point: verdict vector + registry snapshot hash."""
    with scoped() as reg:
        device, _ = build_device(N_SUBSCRIBERS)
        batch = _make_batch(perm_seed)
        passed, dropped = device.process_batch(batch, 0.0, None)
        dropped_ids = set() if dropped is None else {
            int(x) for x in dropped.flow_id}
        n_pass = 0 if passed is None else len(passed)
        assert n_pass + len(dropped_ids) == N_PACKETS
        verdicts = tuple(i not in dropped_ids for i in range(N_PACKETS))
        text = json.dumps(reg.snapshot(), sort_keys=True)
    return verdicts, hashlib.sha256(text.encode()).hexdigest()


def _scalar_outcome(_=None):
    """The router's per-packet reference loop over the unshuffled batch."""
    with scoped() as reg:
        device, _ = build_device(N_SUBSCRIBERS)
        verdicts = []
        for packet in _make_batch(None).to_packets():
            if device.wants(packet):
                verdicts.append(device.process(packet, 0.0, None) is not None)
            else:
                verdicts.append(True)
        text = json.dumps(reg.snapshot(), sort_keys=True)
    return tuple(verdicts), hashlib.sha256(text.encode()).hexdigest()


SEEDS = [None, 1, 2, 3, 4]


class TestBatchMatchesScalar:
    def test_unshuffled_batch_matches_scalar(self):
        assert _batch_outcome(None) == _scalar_outcome()

    def test_traffic_exercises_both_verdicts(self):
        verdicts, _ = _scalar_outcome()
        assert any(verdicts) and not all(verdicts)

    def test_shuffles_are_invariant_serial(self):
        reference = _scalar_outcome()
        for seed in SEEDS:
            assert _batch_outcome(seed) == reference, f"perm seed {seed}"

    def test_parallel_map_matches_serial(self):
        serial = [_batch_outcome(s) for s in SEEDS]
        fanned = parallel_map(_batch_outcome, SEEDS, workers=2)
        assert fanned == serial

    def test_process_pool_matches_serial(self):
        serial = [_batch_outcome(s) for s in SEEDS]
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                pooled = list(pool.map(_batch_outcome, SEEDS))
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable here: {exc}")
        assert pooled == serial


class TestBatchEdgeCases:
    def test_empty_batch_passes_through(self):
        with scoped():
            device, _ = build_device(3)
            empty = PacketBatch(src=np.empty(0, dtype=np.int64),
                                dst=np.empty(0, dtype=np.int64))
            passed, dropped = device.process_batch(empty, 0.0, None)
            assert passed is empty and dropped is None

    def test_unowned_batch_untouched(self):
        with scoped():
            device, _ = build_device(3)
            outside = (172 << 24) + np.arange(5, dtype=np.int64)
            batch = PacketBatch(src=outside, dst=outside + 1000)
            passed, dropped = device.process_batch(batch, 0.0, None)
            assert passed is batch and dropped is None
            assert device.redirected == 0

    def test_crashed_fail_open_passes_all(self):
        with scoped():
            device, _ = build_device(3)
            device.crashed = True
            device.fail_policy = "fail-open"
            batch = _make_batch(None)
            passed, dropped = device.process_batch(batch, 0.0, None)
            assert passed is batch and dropped is None

    def test_crashed_fail_closed_drops_owned_only(self):
        with scoped():
            device, _ = build_device(N_SUBSCRIBERS)
            batch = _make_batch(None)
            scalar_owned = [device.registry.is_owned(p)
                            for p in batch.to_packets()]
            device.crashed = True
            device.fail_policy = "fail-closed"
            passed, dropped = device.process_batch(batch, 0.0, None)
            n_dropped = 0 if dropped is None else len(dropped)
            assert n_dropped == sum(scalar_owned) > 0
            assert (0 if passed is None else len(passed)) \
                == N_PACKETS - n_dropped

"""Property tests for the sketch family (repro.util.sketch).

The contracts under test are the ones the flow-statistics backends and
the trigger heavy-hitter stream rely on:

* Count-Min never underestimates, and its overestimate stays within the
  eps*N band the (width, depth) sizing promises;
* Count-Sketch is unbiased — signed errors cancel across independent
  seeds;
* ``merge(a, b)`` equals one sketch fed the concatenated stream;
* ``update_batch`` equals the scalar ``update`` loop, byte for byte;
* SpaceSaving keeps ``count - error <= true <= count`` and monitors every
  key heavier than ``total / capacity``;
* everything is a pure function of (seed, stream): serial, parallel_map
  and a raw process pool produce byte-identical state;
* a batch update hashes one row at a time, so it never holds a
  (depth, n) index matrix.
"""

import hashlib
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.errors import ReproError
from repro.experiments.common import parallel_map
from repro.util.sketch import (
    CountingBloom,
    CountMinSketch,
    CountSketch,
    SpaceSaving,
)


def _zipf_stream(seed, n=20_000, fan_in=3_000, a=1.2):
    rng = np.random.default_rng(seed)
    w = 1.0 / np.arange(1, fan_in + 1) ** a
    w /= w.sum()
    return rng.choice(fan_in, size=n, p=w).astype(np.uint64)


def _true_counts(keys):
    uniq, counts = np.unique(keys, return_counts=True)
    return dict(zip(uniq.tolist(), counts.tolist()))


class TestCountMin:
    def test_never_underestimates(self):
        keys = _zipf_stream(1)
        cms = CountMinSketch(1024, 4, seed=9)
        cms.update_batch(keys)
        for key, true in _true_counts(keys).items():
            assert cms.estimate(key) >= true

    def test_overestimate_within_eps_n(self):
        """Per-row error exceeds 2N/width with prob < 1/2; the min over
        ``depth`` independent rows exceeding 4x that band is vanishingly
        unlikely — and deterministic for this seed."""
        keys = _zipf_stream(2)
        cms = CountMinSketch(1024, 4, seed=9)
        cms.update_batch(keys)
        band = 8 * len(keys) / cms.width
        for key, true in _true_counts(keys).items():
            assert cms.estimate(key) - true <= band

    def test_batch_equals_scalar(self):
        keys = _zipf_stream(3, n=2_000)
        weights = np.random.default_rng(4).integers(1, 5, len(keys))
        a = CountMinSketch(512, 3, seed=5)
        b = CountMinSketch(512, 3, seed=5)
        a.update_batch(keys, weights)
        for k, w in zip(keys.tolist(), weights.tolist()):
            b.update(k, int(w))
        assert np.array_equal(a.table, b.table)
        assert (a.total, a.updates) == (b.total, b.updates)

    def test_merge_equals_union_stream(self):
        left, right = _zipf_stream(6, n=5_000), _zipf_stream(7, n=5_000)
        a = CountMinSketch(512, 4, seed=8)
        b = CountMinSketch(512, 4, seed=8)
        both = CountMinSketch(512, 4, seed=8)
        a.update_batch(left)
        b.update_batch(right)
        both.update_batch(np.concatenate([left, right]))
        a.merge(b)
        assert np.array_equal(a.table, both.table)
        assert (a.total, a.updates) == (both.total, both.updates)

    def test_merge_rejects_mismatched_shape(self):
        with pytest.raises(ReproError):
            CountMinSketch(512, 4, seed=1).merge(CountMinSketch(512, 4, seed=2))


class TestCountSketch:
    def test_unbiased_across_seeds(self):
        """The signed errors of independent hash seeds average out: the
        mean error across seeds is much smaller than the mean magnitude."""
        keys = _zipf_stream(10)
        true = _true_counts(keys)
        probes = sorted(true)[:50]
        errors = np.zeros((20, len(probes)))
        for s in range(20):
            cs = CountSketch(256, 5, seed=100 + s)
            cs.update_batch(keys)
            errors[s] = [cs.estimate(k) - true[k] for k in probes]
        magnitude = np.abs(errors).mean()
        assert magnitude > 0  # 256 columns for 3k keys: collisions exist
        assert abs(errors.mean()) < 0.2 * magnitude

    def test_batch_equals_scalar(self):
        keys = _zipf_stream(11, n=2_000)
        a = CountSketch(512, 3, seed=5)
        b = CountSketch(512, 3, seed=5)
        a.update_batch(keys)
        for k in keys.tolist():
            b.update(k)
        assert np.array_equal(a.table, b.table)

    def test_merge_equals_union_stream(self):
        left, right = _zipf_stream(12, n=4_000), _zipf_stream(13, n=4_000)
        a = CountSketch(512, 5, seed=3)
        b = CountSketch(512, 5, seed=3)
        both = CountSketch(512, 5, seed=3)
        a.update_batch(left)
        b.update_batch(right)
        both.update_batch(np.concatenate([left, right]))
        assert np.array_equal(a.merge(b).table, both.table)

    def test_negative_weights_supported(self):
        cs = CountSketch(128, 3, seed=1)
        cs.update(42, 10)
        cs.update(42, -4)
        assert cs.estimate(42) == 6


class TestCountingBloom:
    def test_batch_equals_scalar(self):
        keys = _zipf_stream(14, n=2_000)
        a = CountingBloom(1024, 4, seed=2)
        b = CountingBloom(1024, 4, seed=2)
        a.update_batch(keys)
        for k in keys.tolist():
            b.update(k)
        assert np.array_equal(a.cells, b.cells)

    def test_upper_bounds_true_count(self):
        keys = _zipf_stream(15)
        cb = CountingBloom(4096, 4, seed=3)
        cb.update_batch(keys)
        for key, true in _true_counts(keys).items():
            assert cb.estimate(key) >= true


class TestBatchMemory:
    @pytest.mark.parametrize("make", [
        lambda depth: CountMinSketch(2048, depth, seed=1),
        lambda depth: CountSketch(2048, depth, seed=1),
        lambda depth: CountingBloom(8192, depth, seed=1),
    ], ids=["cms", "countsketch", "countingbloom"])
    def test_update_batch_peak_below_two_matrices(self, make):
        """Hashing every row up front costs at least two (depth, n) int64
        matrices (the product and its index cast); one row at a time
        needs a few n-long columns."""
        n, depth = 200_000, 4
        keys = np.random.default_rng(0).integers(0, 2**63, n, dtype=np.int64)
        sketch = make(depth)
        tracemalloc.start()
        try:
            sketch.update_batch(keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * depth * n * 8


class TestSpaceSaving:
    def test_count_bounds_true_frequency(self):
        keys = _zipf_stream(20, n=10_000, fan_in=500)
        ss = SpaceSaving(64)
        ss.update_batch(keys)
        true = _true_counts(keys)
        for key, count in ss.top():
            assert count - ss.errors[key] <= true[key] <= count

    def test_heavy_keys_always_monitored(self):
        keys = _zipf_stream(21, n=10_000, fan_in=500)
        ss = SpaceSaving(64)
        ss.update_batch(keys)
        for key, t in _true_counts(keys).items():
            if t > ss.total / ss.capacity:
                assert ss.estimate(key) > 0, f"heavy key {key} evicted"

    def test_batch_equals_sorted_scalar_application(self):
        """The documented batch semantics: aggregate per key, then apply
        scalarly in ascending key order."""
        keys = _zipf_stream(22, n=5_000, fan_in=800)
        batched = SpaceSaving(32)
        batched.update_batch(keys)
        scalar = SpaceSaving(32)
        uniq, counts = np.unique(keys, return_counts=True)
        for k, c in zip(uniq.tolist(), counts.tolist()):
            scalar.update(k, c)
        assert batched.counts == scalar.counts
        assert batched.errors == scalar.errors
        assert batched.total == scalar.total

    def test_eviction_picks_min_count_smallest_key(self):
        ss = SpaceSaving(2)
        ss.update(5, 3)
        ss.update(9, 3)
        ss.update(1, 1)  # evicts key 5 (count tie 3/3 -> smaller key)
        assert set(ss.counts) == {9, 1}
        assert ss.counts[1] == 4 and ss.errors[1] == 3

    def test_merge_keeps_bounds(self):
        left = _zipf_stream(23, n=4_000, fan_in=300)
        right = _zipf_stream(24, n=4_000, fan_in=300)
        a, b = SpaceSaving(48), SpaceSaving(48)
        a.update_batch(left)
        b.update_batch(right)
        true = _true_counts(np.concatenate([left, right]))
        a.merge(b)
        for key, count in a.top():
            assert count - a.errors[key] <= true.get(key, 0) <= count


def _state_fingerprint(seed):
    """Pool-worker entry point: every sketch fed one seeded stream."""
    keys = _zipf_stream(seed, n=8_000)
    cms = CountMinSketch(512, 4, seed=seed)
    cs = CountSketch(512, 5, seed=seed)
    cb = CountingBloom(1024, 4, seed=seed)
    ss = SpaceSaving(64)
    for sketch in (cms, cs, cb):
        sketch.update_batch(keys)
    ss.update_batch(keys)
    digest = hashlib.sha256()
    digest.update(cms.table.tobytes())
    digest.update(cs.table.tobytes())
    digest.update(cb.cells.tobytes())
    digest.update(repr(sorted(ss.counts.items())).encode())
    digest.update(repr(sorted(ss.errors.items())).encode())
    return digest.hexdigest()


class TestDeterminism:
    SEEDS = [1, 2, 3, 4]

    def test_two_runs_identical(self):
        assert _state_fingerprint(1) == _state_fingerprint(1)

    def test_parallel_map_matches_serial(self):
        serial = [_state_fingerprint(s) for s in self.SEEDS]
        assert parallel_map(_state_fingerprint, self.SEEDS, workers=2) == serial

    def test_process_pool_matches_serial(self):
        serial = [_state_fingerprint(s) for s in self.SEEDS]
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                pooled = list(pool.map(_state_fingerprint, self.SEEDS))
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable here: {exc}")
        assert pooled == serial

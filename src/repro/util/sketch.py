"""Probabilistic flow-statistics sketches: Count-Min, Count-Sketch,
SpaceSaving and a counting Bloom filter.

The paper's scalability argument (Sec. 5.3) is that device state scales
with *subscribers*, not with the host population.  Exact per-flow counting
breaks that claim under adversarial traffic: a DDoS attack with 100k
spoofed or real sources grows a ``Counter`` linearly with attacker fan-in.
The sketch family here makes per-flow statistics O(1) in the key
population — the same design point line-rate telemetry systems (OctoSketch
on DPDK) and per-sender accounting mboxes (MiddlePolice) rely on.

Design contract shared by every sketch:

* **Deterministic seeded hashing** — hash parameters derive from
  ``blake2b(seed)`` exactly like :mod:`repro.util.bloom`'s double hashing,
  so equal seeds give byte-equal tables across processes and platforms
  (the serial == ``parallel_map`` == process-pool guarantee).
* **Integer keys** — sketches hash ``int64``/``uint64`` keys.  Callers
  that key by richer tuples encode them first (see
  :mod:`repro.core.flowstats`).
* **Scalar and vectorised paths** — ``update(key, w)`` for per-packet
  code, ``update_batch(keys, weights)`` doing one NumPy scatter-add per
  row over a whole key array.
* **Mergeability** — ``merge(other)`` combines same-shaped, same-seeded
  sketches by addition, so per-device sketches aggregate into one
  distributed view without shipping per-flow state.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from typing import Iterable, Optional, Union

import numpy as np

from repro.errors import ReproError

__all__ = ["CountMinSketch", "CountSketch", "CountingBloom", "SpaceSaving"]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

ArrayLike = Union[np.ndarray, Iterable[int]]


def _derive_multipliers(seed: int, salt: bytes, n: int) -> np.ndarray:
    """``n`` odd 64-bit multipliers derived from ``blake2b(seed, salt)``.

    Multiply-shift hashing (Dietzfelbinger et al.): with ``a`` odd and
    uniform, ``(a * x) >> (64 - log2 w)`` is universal over power-of-two
    table widths.  Oddness guarantees ``a`` is invertible mod 2^64.
    """
    out = np.empty(n, dtype=_U64)
    counter = 0
    produced = 0
    while produced < n:
        digest = hashlib.blake2b(
            counter.to_bytes(8, "little"), digest_size=32,
            salt=salt, key=seed.to_bytes(8, "little", signed=False)).digest()
        for off in range(0, 32, 8):
            if produced >= n:
                break
            out[produced] = int.from_bytes(digest[off:off + 8], "little") | 1
            produced += 1
        counter += 1
    return out


def _as_u64(keys: ArrayLike) -> np.ndarray:
    """Coerce a key column to uint64 (int64 inputs reinterpret bit-wise)."""
    arr = np.asarray(keys)
    if arr.dtype == _U64:
        return arr
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False).view(_U64)
    return np.array([int(k) & _MASK64 for k in arr.ravel().tolist()],
                    dtype=_U64)


def _as_i64_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n, dtype=np.int64)
    arr = np.asarray(weights)
    if arr.ndim == 0:
        return np.full(n, int(arr), dtype=np.int64)
    if len(arr) != n:
        raise ReproError(f"weights length {len(arr)} != keys length {n}")
    return arr.astype(np.int64, copy=False)


def _pow2_width(width: int) -> tuple[int, int]:
    """Round ``width`` up to a power of two; return (width, shift)."""
    if width <= 0:
        raise ReproError(f"sketch width must be > 0, got {width}")
    w = 1 << max(1, (width - 1).bit_length())
    return w, 64 - (w.bit_length() - 1)


class _HashedSketch:
    """Shared plumbing of the row-hashed sketches (CMS / Count-Sketch)."""

    __slots__ = ("width", "depth", "seed", "table", "total", "updates",
                 "_mult", "_shift")

    _SALT = b"sketch--"

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        if depth <= 0:
            raise ReproError(f"sketch depth must be > 0, got {depth}")
        self.width, self._shift = _pow2_width(width)
        self.depth = depth
        self.seed = seed
        self.table = np.zeros((depth, self.width), dtype=np.int64)
        #: total weight folded in (N in the epsilon*N error bound)
        self.total = 0
        #: number of update calls (scalar) / rows (batched) folded in
        self.updates = 0
        self._mult = _derive_multipliers(seed, self._SALT, depth)

    # ------------------------------------------------------------- hashing
    def _row_index(self, row: int, key_u64: int) -> int:
        return ((int(self._mult[row]) * key_u64) & _MASK64) >> self._shift

    def _indices(self, keys_u64: np.ndarray) -> np.ndarray:
        """(depth, n) index matrix — one multiply-shift per row."""
        shift = _U64(self._shift)
        return ((self._mult[:, None] * keys_u64[None, :]) >> shift
                ).astype(np.int64)

    # ------------------------------------------------------------ plumbing
    def _check_mergeable(self, other: "_HashedSketch") -> None:
        if (type(self) is not type(other) or self.width != other.width
                or self.depth != other.depth or self.seed != other.seed):
            raise ReproError(
                f"cannot merge {type(self).__name__}(w={self.width}, "
                f"d={self.depth}, seed={self.seed}) with "
                f"{type(other).__name__}(w={other.width}, d={other.depth}, "
                f"seed={other.seed})")

    @property
    def nbytes(self) -> int:
        """Bytes of counter state (the accuracy-vs-memory x-axis)."""
        return int(self.table.nbytes)

    def clear(self) -> None:
        self.table[:] = 0
        self.total = 0
        self.updates = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(width={self.width}, "
                f"depth={self.depth}, seed={self.seed}, total={self.total})")


class CountMinSketch(_HashedSketch):
    """Count-Min sketch (Cormode & Muthukrishnan): biased-up counts in
    ``depth x width`` int64 counters.

    Guarantee: ``estimate(k) >= true(k)`` always, and
    ``estimate(k) <= true(k) + eps * N`` with probability ``1 - delta``
    for ``width >= e / eps`` and ``depth >= ln(1 / delta)``, where ``N``
    is the total inserted weight.

    >>> cms = CountMinSketch.from_error(epsilon=0.01, delta=0.01, seed=7)
    >>> cms.update(42, 3)
    >>> cms.update_batch(np.array([42, 7]), np.array([2, 5]))
    >>> int(cms.estimate(42))
    5
    """

    __slots__ = ()

    @classmethod
    def from_error(cls, epsilon: float, delta: float,
                   seed: int = 0) -> "CountMinSketch":
        """Size the sketch for an ``eps * N`` error at confidence ``1-delta``."""
        if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
            raise ReproError(
                f"invalid sketch parameters: epsilon={epsilon}, delta={delta}")
        return cls(width=int(math.ceil(math.e / epsilon)),
                   depth=int(math.ceil(math.log(1.0 / delta))), seed=seed)

    def update(self, key: int, w: int = 1) -> None:
        """Fold ``w`` of weight into ``key`` (per-packet scalar path)."""
        k = int(key) & _MASK64
        table = self.table
        for row in range(self.depth):
            table[row, self._row_index(row, k)] += w
        self.total += w
        self.updates += 1

    def update_batch(self, keys: ArrayLike,
                     weights: Optional[ArrayLike] = None) -> None:
        """One vectorised scatter-add per row over a key column."""
        keys_u64 = _as_u64(keys)
        n = len(keys_u64)
        if n == 0:
            return
        w = _as_i64_weights(weights, n)
        idx = self._indices(keys_u64)
        table = self.table
        for row in range(self.depth):
            np.add.at(table[row], idx[row], w)
        self.total += int(w.sum())
        self.updates += n

    def estimate(self, key: int) -> int:
        """Point estimate: min over rows (never under the true count)."""
        k = int(key) & _MASK64
        return int(min(self.table[row, self._row_index(row, k)]
                       for row in range(self.depth)))

    def estimate_batch(self, keys: ArrayLike) -> np.ndarray:
        keys_u64 = _as_u64(keys)
        if len(keys_u64) == 0:
            return np.zeros(0, dtype=np.int64)
        idx = self._indices(keys_u64)
        rows = np.arange(self.depth)[:, None]
        return self.table[rows, idx].min(axis=0)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Fold ``other`` in (tables add; the estimate bound adds too)."""
        self._check_mergeable(other)
        self.table += other.table
        self.total += other.total
        self.updates += other.updates
        return self


class CountSketch(_HashedSketch):
    """Count-Sketch (Charikar, Chen & Farach-Colton): signed updates, so
    collisions cancel in expectation and the median-of-rows estimate is
    **unbiased** (errors swing both ways, unlike Count-Min's overestimate).

    The sign hash is the top bit of a second multiply-shift over the same
    key, independent of the index hash.
    """

    __slots__ = ("_sign_mult",)

    _SALT = b"csketch-"

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        super().__init__(width, depth, seed)
        self._sign_mult = _derive_multipliers(seed, b"csketch+", depth)

    @classmethod
    def from_error(cls, epsilon: float, delta: float,
                   seed: int = 0) -> "CountSketch":
        """Size for ``eps * ||f||_2`` error at confidence ``1 - delta``."""
        if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
            raise ReproError(
                f"invalid sketch parameters: epsilon={epsilon}, delta={delta}")
        return cls(width=int(math.ceil(3.0 / epsilon ** 2)),
                   depth=int(math.ceil(math.log(3.0 / delta))), seed=seed)

    def _row_sign(self, row: int, key_u64: int) -> int:
        return 1 if ((int(self._sign_mult[row]) * key_u64) & _MASK64) >> 63 \
            else -1

    def _signs(self, keys_u64: np.ndarray) -> np.ndarray:
        """(depth, n) matrix of +/-1 signs."""
        bits = (self._sign_mult[:, None] * keys_u64[None, :]) >> _U64(63)
        return bits.astype(np.int64) * 2 - 1

    def update(self, key: int, w: int = 1) -> None:
        k = int(key) & _MASK64
        table = self.table
        for row in range(self.depth):
            table[row, self._row_index(row, k)] += self._row_sign(row, k) * w
        self.total += w
        self.updates += 1

    def update_batch(self, keys: ArrayLike,
                     weights: Optional[ArrayLike] = None) -> None:
        keys_u64 = _as_u64(keys)
        n = len(keys_u64)
        if n == 0:
            return
        w = _as_i64_weights(weights, n)
        idx = self._indices(keys_u64)
        signed = self._signs(keys_u64) * w[None, :]
        table = self.table
        for row in range(self.depth):
            np.add.at(table[row], idx[row], signed[row])
        self.total += int(w.sum())
        self.updates += n

    def estimate(self, key: int) -> int:
        k = int(key) & _MASK64
        votes = sorted(
            self._row_sign(row, k) * int(self.table[row, self._row_index(row, k)])
            for row in range(self.depth))
        mid = len(votes) // 2
        if len(votes) % 2:
            return votes[mid]
        # even depth: round the two-middle mean toward zero (stays integral)
        return int((votes[mid - 1] + votes[mid]) / 2)

    def estimate_batch(self, keys: ArrayLike) -> np.ndarray:
        keys_u64 = _as_u64(keys)
        if len(keys_u64) == 0:
            return np.zeros(0, dtype=np.int64)
        idx = self._indices(keys_u64)
        rows = np.arange(self.depth)[:, None]
        votes = self.table[rows, idx] * self._signs(keys_u64)
        med = np.median(votes, axis=0)
        return np.trunc(med).astype(np.int64)

    def merge(self, other: "CountSketch") -> "CountSketch":
        self._check_mergeable(other)
        self.table += other.table
        self.total += other.total
        self.updates += other.updates
        return self


class CountingBloom:
    """Counting Bloom filter: ``k`` hash functions into **one** shared
    counter array (vs Count-Min's ``k`` independent rows).

    The min over a key's ``k`` cells upper-bounds its true count, like
    Count-Min, but all hash functions share one array, so cross-function
    collisions make it strictly less accurate than a CMS of equal memory —
    the instructive middle point between a membership Bloom filter
    (:class:`repro.util.bloom.BloomFilter`) and the sketches.
    """

    __slots__ = ("n_cells", "n_hashes", "seed", "cells", "total", "updates",
                 "_mult", "_shift")

    def __init__(self, n_cells: int, n_hashes: int = 4, seed: int = 0) -> None:
        if n_hashes <= 0:
            raise ReproError(f"n_hashes must be > 0, got {n_hashes}")
        self.n_cells, self._shift = _pow2_width(n_cells)
        self.n_hashes = n_hashes
        self.seed = seed
        self.cells = np.zeros(self.n_cells, dtype=np.int64)
        self.total = 0
        self.updates = 0
        self._mult = _derive_multipliers(seed, b"cbloom--", n_hashes)

    def _indices(self, keys_u64: np.ndarray) -> np.ndarray:
        shift = _U64(self._shift)
        return ((self._mult[:, None] * keys_u64[None, :]) >> shift
                ).astype(np.int64)

    def update(self, key: int, w: int = 1) -> None:
        k = _U64(int(key) & _MASK64)
        idx = ((self._mult * k) >> _U64(self._shift)).astype(np.int64)
        # a key's hash functions may collide on a cell; count each cell once
        self.cells[np.unique(idx)] += w
        self.total += w
        self.updates += 1

    def update_batch(self, keys: ArrayLike,
                     weights: Optional[ArrayLike] = None) -> None:
        keys_u64 = _as_u64(keys)
        n = len(keys_u64)
        if n == 0:
            return
        w = _as_i64_weights(weights, n)
        idx = self._indices(keys_u64)
        cells = self.cells
        # per-key dedup would cost a sort per key; collisions of one key's
        # own hash functions are handled by updating each hash row once and
        # skipping rows that repeat an earlier row's cell for that key
        seen = np.zeros((self.n_hashes, n), dtype=bool)
        for row in range(self.n_hashes):
            for prev in range(row):
                seen[row] |= idx[row] == idx[prev]
        for row in range(self.n_hashes):
            fresh = ~seen[row]
            if fresh.all():
                np.add.at(cells, idx[row], w)
            else:
                np.add.at(cells, idx[row][fresh], w[fresh])
        self.total += int(w.sum())
        self.updates += n

    def estimate(self, key: int) -> int:
        k = _U64(int(key) & _MASK64)
        idx = ((self._mult * k) >> _U64(self._shift)).astype(np.int64)
        return int(self.cells[idx].min())

    def estimate_batch(self, keys: ArrayLike) -> np.ndarray:
        keys_u64 = _as_u64(keys)
        if len(keys_u64) == 0:
            return np.zeros(0, dtype=np.int64)
        return self.cells[self._indices(keys_u64)].min(axis=0)

    def __contains__(self, key: int) -> bool:
        return self.estimate(int(key)) > 0

    def merge(self, other: "CountingBloom") -> "CountingBloom":
        if (self.n_cells != other.n_cells or self.n_hashes != other.n_hashes
                or self.seed != other.seed):
            raise ReproError("cannot merge differently-shaped CountingBlooms")
        self.cells += other.cells
        self.total += other.total
        self.updates += other.updates
        return self

    @property
    def nbytes(self) -> int:
        return int(self.cells.nbytes)

    def clear(self) -> None:
        self.cells[:] = 0
        self.total = 0
        self.updates = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CountingBloom(cells={self.n_cells}, k={self.n_hashes}, "
                f"seed={self.seed}, total={self.total})")


class SpaceSaving:
    """SpaceSaving heavy-hitter tracker (Metwally, Agrawal & El Abbadi).

    Keeps at most ``capacity`` monitored keys with counts and per-key
    error bounds: ``count - error <= true <= count``.  Any key whose true
    weight exceeds ``total / capacity`` is guaranteed to be monitored —
    the property the trigger app's per-offending-source stream relies on.

    Updates are O(1) amortised for monitored keys and O(log capacity) on
    an eviction: victim selection uses a lazy min-heap of ``(count, key)``
    entries (stale entries are discarded on pop, and the heap is compacted
    once it outgrows the live set by a constant factor).
    """

    __slots__ = ("capacity", "counts", "errors", "total", "updates", "_heap")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ReproError(f"SpaceSaving capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self.counts: dict[int, int] = {}
        self.errors: dict[int, int] = {}
        self.total = 0
        self.updates = 0
        # lazy heap over (count, key); superset of the live pairs in counts
        self._heap: list[tuple[int, int]] = []

    def _push(self, key: int, count: int) -> None:
        heap = self._heap
        heapq.heappush(heap, (count, key))
        if len(heap) > 8 * self.capacity + 64:
            self._heap = [(c, k) for k, c in self.counts.items()]
            heapq.heapify(self._heap)

    def _pop_min(self) -> tuple[int, int]:
        """The live minimum ``(count, key)`` pair, removed from the heap.

        A key's count only grows while monitored, so any heap entry
        smaller than the live pair is stale and can be dropped; ties on
        count break toward the smaller key, making eviction (hence the
        tracked set) order-independent given equal multisets of updates.
        """
        counts = self.counts
        heap = self._heap
        while True:
            count, key = heap[0]
            if counts.get(key) == count:
                heapq.heappop(heap)
                return count, key
            heapq.heappop(heap)

    def update(self, key: int, w: int = 1) -> None:
        key = int(key) & _MASK64  # canonical uint64 view, like the hashes
        counts = self.counts
        current = counts.get(key)
        if current is not None:
            counts[key] = current + w
            self._push(key, current + w)
        elif len(counts) < self.capacity:
            counts[key] = w
            self.errors[key] = 0
            self._push(key, w)
        else:
            floor, victim = self._pop_min()
            counts.pop(victim)
            self.errors.pop(victim)
            counts[key] = floor + w
            self.errors[key] = floor
            self._push(key, floor + w)
        self.total += w
        self.updates += 1

    def update_batch(self, keys: ArrayLike,
                     weights: Optional[ArrayLike] = None) -> None:
        """Aggregate the batch per key, then apply in sorted-key order.

        Aggregation keeps the eviction loop off the per-packet path; the
        sorted order makes batched updates deterministic regardless of the
        batch's internal packet order.
        """
        arr = _as_u64(keys)
        n = len(arr)
        if n == 0:
            return
        w = _as_i64_weights(weights, n)
        uniq, inverse = np.unique(arr, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inverse, w)
        for key, weight in zip(uniq.tolist(), sums.tolist()):
            self.update(key, weight)
        self.updates += n - len(uniq)  # update() counted one per unique key

    def estimate(self, key: int) -> int:
        """Upper-bound count for ``key`` (0 if not monitored)."""
        return self.counts.get(int(key) & _MASK64, 0)

    def guaranteed(self, key: int) -> int:
        """Lower-bound count: ``count - error``."""
        key = int(key) & _MASK64
        return self.counts.get(key, 0) - self.errors.get(key, 0)

    def top(self, n: Optional[int] = None) -> list[tuple[int, int]]:
        """``(key, count)`` pairs, heaviest first (key-ascending ties)."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked if n is None else ranked[:n]

    def heavy_hitters(self, phi: float) -> list[tuple[int, int]]:
        """Keys whose *guaranteed* count exceeds ``phi * total``."""
        threshold = phi * self.total
        return [(k, c) for k, c in self.top()
                if c - self.errors[k] > threshold]

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        """Fold ``other`` in (capacity stays; error bounds still hold).

        Standard pairwise merge: counts add where both monitor a key, and
        a key monitored by only one side inherits the other side's minimum
        count as additional error headroom.  The result keeps the
        ``count - error <= true <= count`` invariant.
        """
        if self.capacity != other.capacity:
            raise ReproError("cannot merge SpaceSaving of different capacity")
        self_min = min(self.counts.values(), default=0) \
            if len(self.counts) >= self.capacity else 0
        other_min = min(other.counts.values(), default=0) \
            if len(other.counts) >= other.capacity else 0
        merged: dict[int, int] = {}
        errors: dict[int, int] = {}
        for key in sorted(set(self.counts) | set(other.counts)):
            mine = self.counts.get(key)
            theirs = other.counts.get(key)
            count = (mine if mine is not None else self_min) + \
                    (theirs if theirs is not None else other_min)
            err = (self.errors.get(key, self_min)
                   + other.errors.get(key, other_min))
            merged[key] = count
            errors[key] = err
        keep = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
        keep = keep[:self.capacity]
        self.counts = dict(keep)
        self.errors = {k: errors[k] for k, _ in keep}
        self._heap = [(c, k) for k, c in self.counts.items()]
        heapq.heapify(self._heap)
        self.total += other.total
        self.updates += other.updates
        return self

    @property
    def nbytes(self) -> int:
        """Approximate state size: two 8-byte words per monitored slot."""
        return self.capacity * 16

    def clear(self) -> None:
        self.counts.clear()
        self.errors.clear()
        self._heap.clear()
        self.total = 0
        self.updates = 0

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpaceSaving(capacity={self.capacity}, "
                f"monitored={len(self.counts)}, total={self.total})")

"""Pluggable per-flow statistics backends (exact | bloom | cmsketch |
countsketch).

The statistics/trigger applications count traffic per flow key (source AS
x protocol, offending source address, ...).  Exact ``Counter`` state grows
linearly with attacker fan-in — precisely the scaling failure the paper's
Sec. 5.3 argument ("rules scale with subscribers, not hosts") forbids.  A
:class:`FlowStatsBackend` abstracts the storage so hot collectors choose
their accuracy/memory point:

* ``exact`` — two insertion-ordered dicts; byte-exact counts, O(keys)
  state.  The default everywhere, byte-identical to the historical
  ``collections.Counter`` behaviour.
* ``bloom`` — two :class:`~repro.util.sketch.CountingBloom` arrays;
  O(1) state, overestimate-only counts, **no key enumeration** (it
  cannot answer "who are the heavy hitters", only "how much did key k
  send") — the membership-family baseline in the E6 accuracy table.
* ``cmsketch`` — :class:`~repro.util.sketch.CountMinSketch` pair for
  packet/byte counts plus a lazy top-``track`` candidate set for
  heavy-hitter identities; overestimate-only, O(1) state.
* ``countsketch`` — :class:`~repro.util.sketch.CountSketch` pair plus
  the same candidate set; unbiased estimates (errors cancel in
  expectation), O(1) state.

Every backend exposes the same scalar (``add``) and vectorised
(``add_batch``) update paths as the sketches underneath, and every
backend merges with a same-configured peer — so per-device statistics
aggregate into one distributed view without shipping per-flow state.

Keys are **integers** (callers encode richer tuples; see
``repro.core.apps.statistics.encode_flow_key``).  All hashing is seeded
and deterministic: equal update streams give equal state across serial,
``parallel_map`` and process-pool execution.
"""

from __future__ import annotations

import sys
from typing import Iterator, Protocol, Union, runtime_checkable

import numpy as np

from repro.errors import ReproError
from repro.util.sketch import (
    CountingBloom,
    CountMinSketch,
    CountSketch,
    _MASK64,
    _as_i64_weights,
    _as_u64,
)

__all__ = [
    "FlowStatsBackend", "ExactFlowStats", "BloomFlowStats",
    "SketchFlowStats", "make_flow_stats", "BACKEND_KINDS",
]

#: Bytes of a small-int CPython object — the honest per-entry cost model
#: for the exact backend's dict values (keys are usually cached/shared).
_PYINT_BYTES = 28


@runtime_checkable
class FlowStatsBackend(Protocol):
    """What the hot collectors require of a per-flow statistics store."""

    kind: str

    def add(self, key: int, packets: int = 1, nbytes: int = 0) -> None:
        """Fold one packet-count/byte-count observation into ``key``."""
        ...

    def add_batch(self, keys, packets=None, nbytes=None) -> None:
        """Vectorised :meth:`add` over aligned key/weight columns."""
        ...

    def packet_count(self, key: int) -> int: ...

    def byte_count(self, key: int) -> int: ...

    def items(self) -> Iterator[tuple[int, int, int]]:
        """``(key, packets, bytes)`` for every *enumerable* key."""
        ...

    def top(self, n: int, by: str = "bytes") -> list[tuple[int, int]]: ...

    def merge(self, other: "FlowStatsBackend") -> "FlowStatsBackend": ...

    def state_bytes(self) -> int: ...


class ExactFlowStats:
    """Exact per-key packet/byte counts in insertion-ordered dicts.

    The batched path inserts previously-unseen keys in first-appearance
    order, so a batch of packets leaves byte-identical dict ordering (and
    therefore identical reports, including sort tie-breaks) to the same
    packets processed one at a time.
    """

    kind = "exact"
    __slots__ = ("packets_by_key", "bytes_by_key", "updates")

    def __init__(self) -> None:
        self.packets_by_key: dict[int, int] = {}
        self.bytes_by_key: dict[int, int] = {}
        self.updates = 0

    def add(self, key: int, packets: int = 1, nbytes: int = 0) -> None:
        key = int(key)
        pk = self.packets_by_key
        bk = self.bytes_by_key
        pk[key] = pk.get(key, 0) + packets
        bk[key] = bk.get(key, 0) + nbytes
        self.updates += 1

    def add_batch(self, keys, packets=None, nbytes=None) -> None:
        arr = _as_u64(keys)
        n = len(arr)
        if n == 0:
            return
        pw = _as_i64_weights(packets, n)
        bw = _as_i64_weights(nbytes, n) if nbytes is not None \
            else np.zeros(n, dtype=np.int64)
        uniq, first, inverse = np.unique(arr, return_index=True,
                                         return_inverse=True)
        psum = np.zeros(len(uniq), dtype=np.int64)
        bsum = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(psum, inverse, pw)
        np.add.at(bsum, inverse, bw)
        pk = self.packets_by_key
        bk = self.bytes_by_key
        # first-appearance order keeps dict insertion order identical to
        # the scalar per-packet path (report/tie-break parity)
        for j in np.argsort(first, kind="stable"):
            key = int(uniq[j])
            pk[key] = pk.get(key, 0) + int(psum[j])
            bk[key] = bk.get(key, 0) + int(bsum[j])
        self.updates += n

    def packet_count(self, key: int) -> int:
        return self.packets_by_key.get(int(key), 0)

    def byte_count(self, key: int) -> int:
        return self.bytes_by_key.get(int(key), 0)

    def items(self) -> Iterator[tuple[int, int, int]]:
        bk = self.bytes_by_key
        for key, pkts in self.packets_by_key.items():
            yield key, pkts, bk.get(key, 0)

    def top(self, n: int, by: str = "bytes") -> list[tuple[int, int]]:
        source = self.bytes_by_key if by == "bytes" else self.packets_by_key
        return sorted(source.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def merge(self, other: "ExactFlowStats") -> "ExactFlowStats":
        for key, pkts, nbytes in other.items():
            self.add(key, pkts, nbytes)
        self.updates += other.updates - len(other.packets_by_key)
        return self

    def state_bytes(self) -> int:
        """Container plus boxed-int payload — grows linearly in keys."""
        return (sys.getsizeof(self.packets_by_key)
                + sys.getsizeof(self.bytes_by_key)
                + 3 * _PYINT_BYTES * len(self.packets_by_key))

    def __len__(self) -> int:
        return len(self.packets_by_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactFlowStats(keys={len(self)})"


class BloomFlowStats:
    """Counting-Bloom-backed counts: O(1) state, no key enumeration."""

    kind = "bloom"
    __slots__ = ("packet_filter", "byte_filter")

    def __init__(self, n_cells: int = 4096, n_hashes: int = 4,
                 seed: int = 0) -> None:
        self.packet_filter = CountingBloom(n_cells, n_hashes, seed=seed)
        self.byte_filter = CountingBloom(n_cells, n_hashes, seed=seed + 1)

    def add(self, key: int, packets: int = 1, nbytes: int = 0) -> None:
        self.packet_filter.update(key, packets)
        self.byte_filter.update(key, nbytes)

    def add_batch(self, keys, packets=None, nbytes=None) -> None:
        arr = _as_u64(keys)
        if len(arr) == 0:
            return
        self.packet_filter.update_batch(arr, packets)
        self.byte_filter.update_batch(
            arr, nbytes if nbytes is not None
            else np.zeros(len(arr), dtype=np.int64))

    def packet_count(self, key: int) -> int:
        return self.packet_filter.estimate(key)

    def byte_count(self, key: int) -> int:
        return self.byte_filter.estimate(key)

    def items(self) -> Iterator[tuple[int, int, int]]:
        """A Bloom filter stores no keys — nothing to enumerate."""
        return iter(())

    def top(self, n: int, by: str = "bytes") -> list[tuple[int, int]]:
        return []

    def merge(self, other: "BloomFlowStats") -> "BloomFlowStats":
        self.packet_filter.merge(other.packet_filter)
        self.byte_filter.merge(other.byte_filter)
        return self

    def state_bytes(self) -> int:
        return self.packet_filter.nbytes + self.byte_filter.nbytes

    @property
    def updates(self) -> int:
        return self.packet_filter.updates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BloomFlowStats(cells={self.packet_filter.n_cells})"


class SketchFlowStats:
    """Sketch-backed counts plus a lazy top-``track`` candidate set.

    The sketch answers "how much did key k send" in O(1) state; the
    candidate set keeps the *identities* of the heaviest keys so the
    backend can also answer "who" (``items``/``top``) — the composition
    line-rate telemetry systems use (sketch for counts, top-k store for
    keys).  Candidate maintenance is deliberately lazy: updates only
    union the batch's keys into a set, and once the set outgrows
    ``4 * track`` it is compacted to the ``track`` keys with the largest
    sketch estimates in one vectorised pass — keeping the per-batch
    tracking cost off the hot path while the state stays O(track).
    """

    __slots__ = ("kind", "packet_sketch", "byte_sketch", "track", "_cand")

    def __init__(self, sketch_cls=CountMinSketch, width: int = 2048,
                 depth: int = 4, seed: int = 0, track: int = 128) -> None:
        self.kind = ("cmsketch" if sketch_cls is CountMinSketch
                     else "countsketch")
        self.packet_sketch = sketch_cls(width, depth, seed=seed)
        self.byte_sketch = sketch_cls(width, depth, seed=seed + 1)
        self.track = max(1, int(track))
        self._cand: set[int] = set()

    def _compact(self, limit: int) -> None:
        """Shrink candidates to the ``limit`` largest packet estimates.

        Ties break toward the smaller key; everything is computed from a
        key-sorted array, so the surviving set is a pure function of the
        candidate contents (deterministic across processes).
        """
        if len(self._cand) <= limit:
            return
        arr = np.fromiter(self._cand, dtype=np.uint64, count=len(self._cand))
        arr.sort()
        est = self.packet_sketch.estimate_batch(arr)
        order = np.lexsort((arr, -est))
        self._cand = {int(k) for k in arr[order[:limit]]}

    def add(self, key: int, packets: int = 1, nbytes: int = 0) -> None:
        self.packet_sketch.update(key, packets)
        self.byte_sketch.update(key, nbytes)
        self._cand.add(int(key) & _MASK64)
        if len(self._cand) > 4 * self.track:
            self._compact(self.track)

    def add_batch(self, keys, packets=None, nbytes=None) -> None:
        arr = _as_u64(keys)
        n = len(arr)
        if n == 0:
            return
        pw = _as_i64_weights(packets, n)
        self.packet_sketch.update_batch(arr, pw)
        self.byte_sketch.update_batch(
            arr, nbytes if nbytes is not None
            else np.zeros(n, dtype=np.int64))
        self._cand.update(np.unique(arr).tolist())
        if len(self._cand) > 4 * self.track:
            self._compact(self.track)

    def packet_count(self, key: int) -> int:
        return int(self.packet_sketch.estimate(key))

    def byte_count(self, key: int) -> int:
        return int(self.byte_sketch.estimate(key))

    def _ranked(self, by: str = "packets") -> list[tuple[int, int]]:
        """Candidates as ``(key, estimate)``, heaviest first (key-ascending
        ties), after compacting to the ``track`` retention budget."""
        self._compact(self.track)
        if not self._cand:
            return []
        arr = np.fromiter(self._cand, dtype=np.uint64, count=len(self._cand))
        arr.sort()
        sketch = self.byte_sketch if by == "bytes" else self.packet_sketch
        est = sketch.estimate_batch(arr)
        order = np.lexsort((arr, -est))
        return [(int(arr[j]), int(est[j])) for j in order]

    def items(self) -> Iterator[tuple[int, int, int]]:
        """Tracked heavy-hitter candidates with sketch-estimated counts."""
        for key, pkts in self._ranked("packets"):
            yield key, pkts, self.byte_count(key)

    def top(self, n: int, by: str = "bytes") -> list[tuple[int, int]]:
        return self._ranked(by)[:n]

    def merge(self, other: "SketchFlowStats") -> "SketchFlowStats":
        if self.kind != other.kind:
            raise ReproError(
                f"cannot merge {self.kind} stats with {other.kind}")
        self.packet_sketch.merge(other.packet_sketch)
        self.byte_sketch.merge(other.byte_sketch)
        self._cand |= other._cand
        self._compact(4 * self.track)
        return self

    def state_bytes(self) -> int:
        """Sketch tables plus the candidate budget (one 8-byte key and one
        8-byte cached estimate per slot, ``4 * track`` slots)."""
        return (self.packet_sketch.nbytes + self.byte_sketch.nbytes
                + 16 * 4 * self.track)

    @property
    def updates(self) -> int:
        return self.packet_sketch.updates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SketchFlowStats(kind={self.kind!r}, "
                f"width={self.packet_sketch.width})")


BACKEND_KINDS = ("exact", "bloom", "cmsketch", "countsketch")


def make_flow_stats(kind: Union[str, FlowStatsBackend], seed: int = 0,
                    **params) -> FlowStatsBackend:
    """Build a flow-statistics backend by kind name (or pass one through).

    ``params`` forward to the backend constructor (``width``/``depth``/
    ``track`` for the sketches, ``n_cells``/``n_hashes`` for bloom).
    """
    if not isinstance(kind, str):
        return kind
    if kind == "exact":
        if params:
            raise ReproError(f"exact backend takes no parameters: {params}")
        return ExactFlowStats()
    if kind == "bloom":
        return BloomFlowStats(seed=seed, **params)
    if kind == "cmsketch":
        return SketchFlowStats(CountMinSketch, seed=seed, **params)
    if kind == "countsketch":
        return SketchFlowStats(CountSketch, seed=seed, **params)
    raise ReproError(
        f"unknown flow-stats backend {kind!r}; known: {BACKEND_KINDS}")

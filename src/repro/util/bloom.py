"""Bloom filter over byte strings.

The SPIE hash-based traceback system [Snoeren et al., SIGCOMM'01] — which the
paper cites both as related work (Sec. 3.1) and as an application of the
traffic control service (Sec. 4.4, "storing a backlog of packet hashes") —
stores packet digests in Bloom filters at each router.  This implementation
is deterministic (seeded double hashing over blake2b) and supports the
standard membership/saturation queries; :class:`DigestBacklog` is the
windowed ring of such filters that both SPIE deployments keep per AS.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.errors import ReproError

__all__ = ["BloomFilter", "DigestBacklog"]


class BloomFilter:
    """Fixed-size Bloom filter with ``k`` hash functions via double hashing.

    >>> bf = BloomFilter(capacity=100, fp_rate=0.01)
    >>> bf.add(b"packet-digest")
    >>> b"packet-digest" in bf
    True
    >>> b"other" in bf
    False
    """

    __slots__ = ("n_bits", "n_hashes", "_bits", "count", "_salt")

    def __init__(self, capacity: int, fp_rate: float = 0.01, salt: int = 0) -> None:
        if capacity <= 0 or not (0.0 < fp_rate < 1.0):
            raise ReproError(f"invalid bloom parameters: capacity={capacity}, fp_rate={fp_rate}")
        # Standard sizing: m = -n ln p / (ln 2)^2 ; k = m/n ln 2.
        m = max(8, int(math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))))
        self.n_bits = m
        self.n_hashes = max(1, int(round(m / capacity * math.log(2))))
        self._bits = np.zeros(m, dtype=bool)
        self.count = 0
        self._salt = salt

    def _indices(self, item: bytes) -> np.ndarray:
        digest = hashlib.blake2b(item, digest_size=16, salt=self._salt.to_bytes(8, "little")).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        ks = np.arange(self.n_hashes, dtype=np.uint64)
        return ((h1 + ks * h2) % np.uint64(self.n_bits)).astype(np.int64)

    def add(self, item: bytes) -> bool:
        """Insert ``item``; returns True when any bit was newly set.

        A duplicate insert (or a full hash collision with earlier items)
        flips no bit, so it no longer inflates ``count`` — keeping the
        saturation/capacity estimates honest under repeated inserts.
        """
        idx = self._indices(item)
        novel = not self._bits[idx].all()
        if novel:
            self._bits[idx] = True
            self.count += 1
        return novel

    def __contains__(self, item: bytes) -> bool:
        return bool(self._bits[self._indices(item)].all())

    @property
    def saturation(self) -> float:
        """Fraction of bits set — a proxy for the achieved false-positive rate."""
        return float(self._bits.mean())

    def clear(self) -> None:
        """Drop all entries (used when a router pages out an old digest window)."""
        self._bits[:] = False
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BloomFilter(bits={self.n_bits}, k={self.n_hashes}, count={self.count})"


class DigestBacklog:
    """SPIE's packet-digest backlog: one Bloom filter per time window.

    A digest lands in the filter of the window holding ``now``; once more
    than ``max_windows`` windows exist the oldest one is paged out, so
    packets older than the retained backlog can no longer be traced.

    >>> backlog = DigestBacklog(capacity=100, window=1.0, max_windows=2)
    >>> backlog.add(b"old", 0.5)
    >>> backlog.add(b"new", 2.5)
    >>> backlog.saw(b"old"), len(backlog)
    (True, 2)
    >>> backlog.add(b"newer", 3.0)
    >>> backlog.saw(b"old"), backlog.saw(b"new")
    (False, True)
    """

    __slots__ = ("capacity", "window", "max_windows", "salt", "fp_rate",
                 "windows")

    def __init__(self, capacity: int, window: float, max_windows: int,
                 salt: int = 0, fp_rate: float = 0.001) -> None:
        self.capacity = capacity
        self.window = window
        self.max_windows = max_windows
        self.salt = salt
        self.fp_rate = fp_rate
        #: (window start time, filter), oldest first
        self.windows: list[tuple[float, BloomFilter]] = []

    def add(self, digest: bytes, now: float) -> None:
        windows = self.windows
        start = (now // self.window) * self.window
        if not windows or windows[-1][0] != start:
            windows.append((start, BloomFilter(self.capacity, self.fp_rate,
                                               salt=self.salt)))
            if len(windows) > self.max_windows:
                del windows[0]
        windows[-1][1].add(digest)

    def saw(self, digest: bytes) -> bool:
        """Is ``digest`` in any retained window?"""
        return any(digest in bloom for _, bloom in self.windows)

    def __len__(self) -> int:
        return len(self.windows)

"""Shared utilities: deterministic RNG, units, token buckets, Bloom filters,
count sketches, summary statistics and plain-text result tables."""

from repro.util.rng import derive_rng, spawn_rngs
from repro.util.units import (
    BITS_PER_BYTE,
    Gbps,
    Kbps,
    Mbps,
    bits,
    bytes_to_bits,
    fmt_rate,
    ms,
    seconds,
    us,
)
from repro.util.tokenbucket import TokenBucket
from repro.util.bloom import BloomFilter
from repro.util.sketch import (
    CountingBloom,
    CountMinSketch,
    CountSketch,
    SpaceSaving,
)
from repro.util.stats import WindowedCounter
from repro.util.tables import Table

__all__ = [
    "derive_rng",
    "spawn_rngs",
    "BITS_PER_BYTE",
    "bits",
    "bytes_to_bits",
    "Kbps",
    "Mbps",
    "Gbps",
    "seconds",
    "ms",
    "us",
    "fmt_rate",
    "TokenBucket",
    "BloomFilter",
    "CountMinSketch",
    "CountSketch",
    "CountingBloom",
    "SpaceSaving",
    "WindowedCounter",
    "Table",
]

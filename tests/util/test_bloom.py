"""Unit tests for the Bloom filter."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import ReproError
from repro.util import BloomFilter


class TestBasics:
    def test_membership(self):
        bf = BloomFilter(capacity=100)
        bf.add(b"hello")
        assert b"hello" in bf
        assert b"world" not in bf

    def test_count(self):
        bf = BloomFilter(capacity=10)
        for i in range(5):
            bf.add(str(i).encode())
        assert bf.count == 5

    def test_clear(self):
        bf = BloomFilter(capacity=10)
        bf.add(b"x")
        bf.clear()
        assert b"x" not in bf
        assert bf.count == 0
        assert bf.saturation == 0.0

    def test_salt_changes_hashing(self):
        a = BloomFilter(capacity=100, salt=1)
        b = BloomFilter(capacity=100, salt=2)
        a.add(b"item")
        b.add(b"item")
        assert a._bits != b._bits

    def test_fp_rate_near_target_at_capacity(self):
        bf = BloomFilter(capacity=1000, fp_rate=0.01, salt=7)
        for i in range(1000):
            bf.add(f"present-{i}".encode())
        false_positives = sum(
            1 for i in range(10_000) if f"absent-{i}".encode() in bf
        )
        # allow generous slack: expect around 1%, fail above 3%
        assert false_positives / 10_000 < 0.03

    def test_saturation_monotone(self):
        bf = BloomFilter(capacity=50, salt=3)
        last = 0.0
        for i in range(50):
            bf.add(str(i).encode())
            assert bf.saturation >= last
            last = bf.saturation

    @pytest.mark.parametrize("cap,fp", [(0, 0.01), (-5, 0.01), (10, 0.0), (10, 1.0)])
    def test_invalid_parameters(self, cap, fp):
        with pytest.raises(ReproError):
            BloomFilter(capacity=cap, fp_rate=fp)


class TestNoFalseNegatives:
    """The defining Bloom-filter property: inserted items are always found.

    SPIE traceback correctness depends on this — a router must never deny
    having seen a packet it forwarded.
    """

    @given(items=st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_every_inserted_item_is_member(self, items):
        bf = BloomFilter(capacity=max(len(items), 8))
        for item in items:
            bf.add(item)
        for item in items:
            assert item in bf


def reference_bits(n_bits, n_hashes, salt, items):
    """The filter as one bool per bit, indexed by NumPy's uint64 double
    hashing: bit ``(h1 + k*h2) mod 2**64 mod m`` for k < n_hashes."""
    bits = np.zeros(n_bits, dtype=bool)
    for item in items:
        digest = hashlib.blake2b(item, digest_size=16,
                                 salt=salt.to_bytes(8, "little")).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        ks = np.arange(n_hashes, dtype=np.uint64)
        bits[((h1 + ks * h2) % np.uint64(n_bits)).astype(np.int64)] = True
    return bits


class TestPackedLayout:
    """The packed filter sets the reference's bits, no others, and answers
    membership as the reference would."""

    @given(items=st.lists(st.binary(min_size=1, max_size=32), max_size=40),
           probes=st.lists(st.binary(min_size=1, max_size=32), max_size=20),
           salt=st.integers(0, 2**64 - 1),
           capacity=st.integers(1, 2000),
           fp_rate=st.sampled_from([0.3, 0.05, 0.01, 0.001]))
    def test_matches_reference(self, items, probes, salt, capacity, fp_rate):
        bf = BloomFilter(capacity, fp_rate, salt=salt)
        assume(bf.n_bits % 8)
        for item in items:
            bf.add(item)
        ref = reference_bits(bf.n_bits, bf.n_hashes, salt, items)
        packed = np.unpackbits(np.frombuffer(bytes(bf._bits), dtype=np.uint8),
                               bitorder="little")
        assert np.array_equal(packed[:bf.n_bits], ref)
        assert not packed[bf.n_bits:].any()
        assert bf.saturation == float(ref.mean())
        for probe in items + probes:
            single = reference_bits(bf.n_bits, bf.n_hashes, salt, [probe])
            assert (probe in bf) == bool(ref[single].all())

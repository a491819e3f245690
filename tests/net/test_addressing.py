"""Unit and property tests for IPv4 addressing and the prefix trie."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressError
from repro.net import AddressAllocator, IPv4Address, Prefix, PrefixTable
from repro.net.addressing import HostAddressPool, _as_int, summarize


def _octet_loop(text):
    """The dotted-quad parser as it was before the C fast path: the oracle."""
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError as exc:
            raise AddressError(f"bad octet in {text!r}") from exc
        if not (0 <= octet <= 255):
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except AddressError as exc:
        return "error", str(exc)


_QUAD_CHARS = st.sampled_from(list("0123456789.") + [" ", "+", "-", "_", "x",
                                                      "\n", "\x00", "١", "٣"])


class TestIPv4Address:
    def test_parse_roundtrip(self):
        for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "192.168.0.1"):
            assert str(IPv4Address.parse(text)) == text

    @pytest.mark.parametrize("bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.0", "a.b.c.d", "-1.0.0.0"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(AddressError):
            IPv4Address.parse(bad)

    def test_out_of_range_value(self):
        with pytest.raises(AddressError):
            IPv4Address(2**32)
        with pytest.raises(AddressError):
            IPv4Address(-1)

    def test_ordering(self):
        assert IPv4Address.parse("10.0.0.1") < IPv4Address.parse("10.0.0.2")

    @given(v=st.integers(min_value=0, max_value=2**32 - 1))
    def test_int_str_roundtrip(self, v):
        a = IPv4Address(v)
        assert IPv4Address.parse(str(a)).value == v
        assert _as_int(str(a)) == v
        assert int(a) == v

    @given(text=st.one_of(
        st.text(),
        st.text(_QUAD_CHARS, max_size=20),
        st.lists(st.integers(-300, 300).map(str), min_size=1, max_size=6)
        .map(".".join),
        st.sampled_from([" 10.0.0.1", "+10.0.0.1", "1_0.0.0.1", "10.0.0.01",
                         "١.2.3.4", "10.0.0.1 ", "10.0.0.1\n", "0x0a.0.0.1",
                         "10.1", "10.0.0.1\x00", "1.2.3.4 junk", "\ud800.1.1.1",
                         "-0.0.0.0", "010.0.0.0", "1.2.3.256"]),
    ))
    @settings(max_examples=300)
    def test_parse_matches_octet_loop(self, text):
        """Every text parses to the old loop's value, or raises its error."""
        expected = _outcome(_octet_loop, text)
        assert _outcome(_as_int, text) == expected
        assert _outcome(lambda t: IPv4Address.parse(t).value, text) == expected


class TestPrefix:
    def test_parse_and_str(self):
        p = Prefix.parse("10.1.0.0/16")
        assert str(p) == "10.1.0.0/16"
        assert p.num_addresses == 65536

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix(IPv4Address.parse("10.1.2.3").value, 16)

    @pytest.mark.parametrize("length", [-1, 33])
    def test_length_out_of_range_rejected(self, length):
        # /33 used to reach the mask shift first: "negative shift count"
        with pytest.raises(AddressError, match="prefix length out of range"):
            Prefix.parse(f"10.0.0.0/{length}")
        with pytest.raises(AddressError, match="prefix length out of range"):
            Prefix.make("10.0.0.0", length)

    def test_parse_masks_host_bits(self):
        assert str(Prefix.parse("10.1.2.3/16")) == "10.1.0.0/16"

    def test_make_masks(self):
        p = Prefix.make("10.1.2.3", 24)
        assert str(p) == "10.1.2.0/24"

    def test_contains(self):
        p = Prefix.parse("10.1.0.0/16")
        assert p.contains("10.1.255.255")
        assert not p.contains("10.2.0.0")

    def test_zero_length_contains_everything(self):
        p = Prefix.parse("0.0.0.0/0")
        assert p.contains("255.255.255.255")
        assert p.contains("0.0.0.0")

    def test_slash32(self):
        p = Prefix.parse("10.0.0.1/32")
        assert p.contains("10.0.0.1")
        assert not p.contains("10.0.0.2")
        assert p.num_addresses == 1

    def test_contains_prefix(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.1.0.0/16")
        assert outer.contains_prefix(inner)
        assert not inner.contains_prefix(outer)
        assert outer.contains_prefix(outer)

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.1.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_first_last(self):
        p = Prefix.parse("10.1.2.0/24")
        assert str(p.first) == "10.1.2.0"
        assert str(p.last) == "10.1.2.255"

    def test_subnets(self):
        p = Prefix.parse("10.0.0.0/16")
        subs = list(p.subnets(18))
        assert len(subs) == 4
        assert all(p.contains_prefix(s) for s in subs)
        with pytest.raises(AddressError):
            list(p.subnets(8))

    def test_addresses_iteration(self):
        p = Prefix.parse("10.0.0.0/30")
        assert [str(a) for a in p.addresses()] == [
            "10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3",
        ]

    @given(
        v=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=0, max_value=32),
    )
    def test_make_always_contains_seed_address(self, v, length):
        p = Prefix.make(v, length)
        assert p.contains(v)


class TestPrefixTable:
    def test_longest_prefix_wins(self):
        t = PrefixTable()
        t.insert(Prefix.parse("10.0.0.0/8"), "coarse")
        t.insert(Prefix.parse("10.1.0.0/16"), "fine")
        t.insert(Prefix.parse("10.1.2.0/24"), "finest")
        assert t.lookup("10.1.2.3") == "finest"
        assert t.lookup("10.1.9.9") == "fine"
        assert t.lookup("10.200.0.1") == "coarse"
        assert t.lookup("11.0.0.1") is None

    def test_default_route(self):
        t = PrefixTable()
        t.insert(Prefix.parse("0.0.0.0/0"), "default")
        assert t.lookup("203.0.113.7") == "default"

    def test_remove(self):
        t = PrefixTable()
        p = Prefix.parse("10.0.0.0/8")
        t.insert(p, 1)
        assert t.remove(p)
        assert not t.remove(p)
        assert t.lookup("10.0.0.1") is None
        assert len(t) == 0

    def test_replace_keeps_size(self):
        t = PrefixTable()
        p = Prefix.parse("10.0.0.0/8")
        t.insert(p, 1)
        t.insert(p, 2)
        assert len(t) == 1
        assert t.lookup_exact(p) == 2

    def test_lookup_exact_no_lpm(self):
        t = PrefixTable()
        t.insert(Prefix.parse("10.0.0.0/8"), "coarse")
        assert t.lookup_exact(Prefix.parse("10.1.0.0/16")) is None

    def test_items_roundtrip(self):
        t = PrefixTable()
        prefixes = [Prefix.parse(s) for s in ("10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24")]
        for i, p in enumerate(prefixes):
            t.insert(p, i)
        assert dict(t.items()) == {p: i for i, p in enumerate(prefixes)}

    def _ten_and_top(self):
        t = PrefixTable()
        t.insert(Prefix.parse("10.0.0.0/8"), "ten")
        t.insert(Prefix.parse("255.255.255.0/24"), "top")
        return t

    _OUT_OF_RANGE = (-1, 2**32, 2**32 + (10 << 24))

    @pytest.mark.parametrize("addr", _OUT_OF_RANGE)
    def test_trie_rejects_out_of_range(self, addr):
        # a fresh table answers from the trie walk, which used to read
        # only the low 32 bits
        with pytest.raises(AddressError, match="address out of range"):
            self._ten_and_top().lookup(addr)

    @pytest.mark.parametrize("addr", _OUT_OF_RANGE)
    def test_compiled_rejects_out_of_range(self, addr):
        # bisect used to fall off either end onto the last interval
        t = self._ten_and_top()
        with pytest.raises(AddressError, match="address out of range"):
            t.compile().lookup(addr)
        with pytest.raises(AddressError, match="address out of range"):
            t.lookup(addr)  # served from the cached compiled table
        assert t.lookup(0xFFFFFFFF) == "top" and t.lookup(10 << 24) == "ten"

    def test_contains_dunder(self):
        t = PrefixTable()
        t.insert(Prefix.parse("10.0.0.0/8"), "x")
        assert "10.0.0.1" in t
        assert "11.0.0.1" not in t

    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=1, max_value=32),
            ),
            min_size=1, max_size=60,
        ),
        queries=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=40),
    )
    @settings(max_examples=60)
    def test_matches_bruteforce(self, entries, queries):
        """Trie LPM must agree with brute-force longest-match scan."""
        t = PrefixTable()
        table = {}
        for v, length in entries:
            p = Prefix.make(v, length)
            t.insert(p, str(p))
            table[p] = str(p)
        for q in queries:
            matching = [p for p in table if p.contains(q)]
            expected = max(matching, key=lambda p: p.length, default=None)
            got = t.lookup(q)
            assert got == (table[expected] if expected is not None else None)


class TestAllocator:
    def test_disjoint_prefixes(self):
        alloc = AddressAllocator("10.0.0.0/8")
        prefixes = [alloc.allocate_prefix(24) for _ in range(50)]
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1:]:
                assert not a.overlaps(b)

    def test_mixed_lengths_align(self):
        alloc = AddressAllocator("10.0.0.0/8")
        a = alloc.allocate_prefix(24)
        b = alloc.allocate_prefix(16)
        c = alloc.allocate_prefix(24)
        assert not a.overlaps(b) and not b.overlaps(c) and not a.overlaps(c)

    def test_exhaustion(self):
        alloc = AddressAllocator("10.0.0.0/30")
        alloc.allocate_prefix(31)
        alloc.allocate_prefix(31)
        with pytest.raises(AddressError):
            alloc.allocate_prefix(31)

    def test_too_large_request(self):
        alloc = AddressAllocator("10.0.0.0/16")
        with pytest.raises(AddressError):
            alloc.allocate_prefix(8)

    def test_host_pool(self):
        pool = HostAddressPool(Prefix.parse("10.0.0.0/29"))
        addrs = [pool.next_address() for _ in range(7)]
        assert len(set(addrs)) == 7
        with pytest.raises(AddressError):
            pool.next_address()


class TestSummarize:
    def test_subsumed_removed(self):
        out = summarize([Prefix.parse("10.0.0.0/8"), Prefix.parse("10.1.0.0/16")])
        assert out == [Prefix.parse("10.0.0.0/8")]

    def test_disjoint_kept(self):
        prefixes = [Prefix.parse("10.0.0.0/16"), Prefix.parse("10.1.0.0/16")]
        assert sorted(summarize(prefixes)) == sorted(prefixes)

    def test_duplicates_deduped(self):
        p = Prefix.parse("10.0.0.0/24")
        assert summarize([p, p]) == [p]

"""IPv4 addressing: addresses, prefixes, longest-prefix-match tables and a
per-AS address allocator.

Addresses are plain 32-bit ints wrapped in a tiny value class, prefixes are
``(base, length)`` pairs, and :class:`PrefixTable` is a binary trie giving
longest-prefix match — the same primitive real routers and the paper's
"officially registered to hold ... the IP address" ownership checks rely on.

Traffic ownership (Sec. 4.1 of the paper) is *defined* over prefixes: a
network user owns a packet iff its source or destination address lies in one
of the user's registered prefixes.  Everything in :mod:`repro.core` builds on
the matching semantics implemented here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from socket import inet_aton, inet_ntoa
from typing import Generic, Iterable, Iterator, Optional, TypeVar

import numpy as np

from repro.errors import AddressError

__all__ = [
    "IPv4Address",
    "Prefix",
    "PrefixTable",
    "CompiledPrefixTable",
    "AddressAllocator",
]

_MAX = 0xFFFFFFFF

T = TypeVar("T")


def _coerce_addr_batch(addrs) -> np.ndarray:
    """Normalise a batch of addresses to a validated int64 ndarray.

    Accepts anything :func:`numpy.asarray` can turn into an array: integer
    arrays of any width, float arrays holding whole numbers, lists of
    ints/strings/:class:`IPv4Address`, or the empty list.  Raises
    :class:`~repro.errors.AddressError` on fractional floats, values
    outside the 32-bit address space (including negatives — before this
    check a ``-1`` silently wrapped to the *last* interval of the compiled
    table), and non-numeric dtypes.
    """
    arr = np.asarray(addrs)
    kind = arr.dtype.kind
    if kind == "O" or kind in "US":
        flat = [_as_int(a) for a in arr.ravel().tolist()]
        arr = np.array(flat, dtype=np.int64).reshape(arr.shape)
    elif kind == "f":
        if arr.size and not np.all(np.mod(arr, 1.0) == 0.0):
            raise AddressError("address batch contains non-integer floats")
        arr = arr.astype(np.int64)
    elif kind == "u":
        # check before the int64 cast: huge uint64s would wrap silently
        if arr.size and int(arr.max()) > _MAX:
            raise AddressError(
                f"address out of range in batch: {int(arr.max()):#x}")
        arr = arr.astype(np.int64)
    elif kind in "ib":
        arr = arr.astype(np.int64, copy=False)
    else:
        raise AddressError(f"unsupported address batch dtype: {arr.dtype}")
    if arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi > _MAX:
            bad = lo if lo < 0 else hi
            raise AddressError(f"address out of range in batch: {bad:#x}")
    return arr


@dataclass(frozen=True, order=True)
class IPv4Address:
    """An IPv4 address stored as an unsigned 32-bit integer.

    >>> IPv4Address.parse("10.0.0.1").value
    167772161
    >>> str(IPv4Address(167772161))
    '10.0.0.1'
    """

    value: int

    def __post_init__(self) -> None:
        if not (0 <= self.value <= _MAX):
            raise _out_of_range(self.value)

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad notation."""
        return cls(_parse_quad(text))

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __int__(self) -> int:
        return self.value


def _out_of_range(value: int) -> AddressError:
    return AddressError(f"address out of range: {value:#x}")


def _parse_quad(text: str) -> int:
    """Dotted-quad notation to its 32-bit int.

    A canonical quad (what ``str(IPv4Address)`` prints) is parsed in C and
    confirmed by printing it back; any other text takes the octet loop,
    which accepts whatever ``int()`` accepts per octet (``" 10"``, ``"010"``).
    """
    try:
        packed = inet_aton(text)
    except (OSError, TypeError, ValueError):
        pass
    else:
        if inet_ntoa(packed) == text:
            return int.from_bytes(packed, "big")
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


def _as_int(addr: "IPv4Address | int | str") -> int:
    if isinstance(addr, IPv4Address):
        return addr.value
    if isinstance(addr, str):
        return _parse_quad(addr)
    return int(addr)


@dataclass(frozen=True, order=True)
class Prefix:
    """A CIDR prefix ``base/length`` with a canonical (masked) base address.

    >>> p = Prefix.parse("10.1.0.0/16")
    >>> p.contains(IPv4Address.parse("10.1.2.3"))
    True
    >>> p.contains(IPv4Address.parse("10.2.0.0"))
    False
    """

    base: int
    length: int

    def __post_init__(self) -> None:
        if not (0 <= self.length <= 32):
            raise AddressError(f"prefix length out of range: {self.length}")
        if not (0 <= self.base <= _MAX):
            raise AddressError(f"prefix base out of range: {self.base:#x}")
        if self.base & ~self.mask():
            raise AddressError(
                f"prefix base {IPv4Address(self.base)}/{self.length} has host bits set"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` notation."""
        if "/" not in text:
            raise AddressError(f"missing '/length' in {text!r}")
        addr_text, _, len_text = text.partition("/")
        try:
            length = int(len_text)
        except ValueError as exc:
            raise AddressError(f"bad length in {text!r}") from exc
        return cls.make(IPv4Address.parse(addr_text).value, length)

    @classmethod
    def make(cls, addr: "IPv4Address | int | str", length: int) -> "Prefix":
        """Build a prefix containing ``addr``, masking host bits."""
        if not (0 <= length <= 32):  # before the shift, which needs it
            raise AddressError(f"prefix length out of range: {length}")
        mask = (0xFFFFFFFF << (32 - length)) & _MAX if length else 0
        return cls(_as_int(addr) & mask, length)

    def mask(self) -> int:
        """The netmask as a 32-bit int."""
        return (0xFFFFFFFF << (32 - self.length)) & _MAX if self.length else 0

    def contains(self, addr: "IPv4Address | int | str") -> bool:
        """True iff ``addr`` falls inside this prefix."""
        return (_as_int(addr) & self.mask()) == self.base

    def contains_prefix(self, other: "Prefix") -> bool:
        """True iff ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and (other.base & self.mask()) == self.base

    def overlaps(self, other: "Prefix") -> bool:
        """True iff the two prefixes share any address."""
        return self.contains_prefix(other) or other.contains_prefix(self)

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    @property
    def first(self) -> IPv4Address:
        return IPv4Address(self.base)

    @property
    def last(self) -> IPv4Address:
        return IPv4Address(self.base | ~self.mask() & _MAX)

    def addresses(self) -> Iterator[IPv4Address]:
        """Iterate all addresses in the prefix (careful with short prefixes)."""
        for v in range(self.base, self.base + self.num_addresses):
            yield IPv4Address(v)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Split into equal subnets of ``new_length``."""
        if new_length < self.length or new_length > 32:
            raise AddressError(f"cannot split /{self.length} into /{new_length}")
        step = 1 << (32 - new_length)
        for base in range(self.base, self.base + self.num_addresses, step):
            yield Prefix(base, new_length)

    def __str__(self) -> str:
        return f"{IPv4Address(self.base)}/{self.length}"


class _TrieNode(Generic[T]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list[Optional[_TrieNode[T]]] = [None, None]
        self.value: Optional[T] = None
        self.has_value = False


class CompiledPrefixTable(Generic[T]):
    """A :class:`PrefixTable` frozen into sorted flat interval arrays.

    Longest-prefix match over a *fixed* rule set is piecewise constant over
    the address space: projecting every prefix onto its ``[base, base+size)``
    interval and resolving each elementary interval once turns per-packet
    LPM into a single binary search — the same flattening trick compiled
    line-rate pipelines use instead of walking a trie per packet.

    ``lookup`` is an O(log n) scalar bisect; ``lookup_many`` vectorises whole
    address batches through :func:`numpy.searchsorted`.  The structure is a
    snapshot: mutate the source trie and :meth:`PrefixTable.compile` again.
    """

    __slots__ = ("_starts", "_starts_np", "_values", "_value_ids", "_size",
                 "_int_values", "_none_mask")

    def __init__(self, table: "PrefixTable[T]") -> None:
        bounds = {0}
        size = 0
        for prefix, _ in table.items():
            size += 1
            bounds.add(prefix.base)
            end = prefix.base + prefix.num_addresses
            if end <= _MAX:
                bounds.add(end)
        starts = sorted(bounds)
        # one slow trie walk per elementary interval, then merge runs whose
        # resolved value is the same object
        merged_starts: list[int] = []
        values: list[Optional[T]] = []
        for start in starts:
            value = table._lookup_trie(start)
            if values and values[-1] is value:
                continue
            merged_starts.append(start)
            values.append(value)
        self._size = size
        self._starts = merged_starts
        self._values = values
        self._starts_np = np.asarray(merged_starts, dtype=np.int64)
        self._value_ids = np.empty(len(values), dtype=object)
        self._value_ids[:] = values
        # lazy int64 projection of the interval values for lookup_many_int
        self._int_values: Optional[np.ndarray] = None
        self._none_mask: Optional[np.ndarray] = None

    def lookup(self, addr: "IPv4Address | int | str") -> Optional[T]:
        """Longest-prefix-match lookup; None when nothing matches.
        An address outside the 32-bit space raises AddressError."""
        a = addr if type(addr) is int else _as_int(addr)
        if a >> 32:  # negative, or past 2**32 - 1
            raise _out_of_range(a)
        return self._values[bisect_right(self._starts, a) - 1]

    def lookup_many(self, addrs) -> np.ndarray:
        """Vectorised LPM for a batch of addresses.

        ``addrs`` is anything :func:`numpy.asarray` accepts: an integer
        ndarray (any width), a float ndarray of whole numbers, a list of
        ints / dotted-quad strings / :class:`IPv4Address`, or the empty
        list.  Returns an object ndarray of matched values (``None`` where
        nothing matches), aligned with the input shape.  Addresses outside
        the 32-bit space raise :class:`~repro.errors.AddressError` instead
        of silently wrapping onto the wrong interval.
        """
        arr = _coerce_addr_batch(addrs)
        if arr.size == 0:
            return np.empty(arr.shape, dtype=object)
        idx = np.searchsorted(self._starts_np, arr, side="right") - 1
        return self._value_ids[idx]

    def _compile_int_values(self) -> None:
        n = len(self._values)
        vals = np.zeros(n, dtype=np.int64)
        none_mask = np.zeros(n, dtype=bool)
        for j, v in enumerate(self._values):
            if v is None:
                none_mask[j] = True
            elif isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                vals[j] = int(v)
            else:
                raise AddressError(
                    f"lookup_many_int needs integer table values, got {type(v).__name__}")
        self._int_values = vals
        self._none_mask = none_mask

    def lookup_many_int(self, addrs, default: int = -1) -> np.ndarray:
        """Vectorised LPM returning an int64 array (for int-valued tables).

        Like :meth:`lookup_many` but stays in int64 end to end — the hot
        path for routing-style tables mapping prefixes to AS numbers.
        Unmatched addresses yield ``default`` instead of ``None``.  Raises
        :class:`~repro.errors.AddressError` when the table holds non-int
        values.
        """
        arr = _coerce_addr_batch(addrs)
        if self._int_values is None:
            self._compile_int_values()
        assert self._int_values is not None and self._none_mask is not None
        if arr.size == 0:
            return np.empty(arr.shape, dtype=np.int64)
        idx = np.searchsorted(self._starts_np, arr, side="right") - 1
        out = self._int_values[idx]
        if self._none_mask.any():
            out = np.where(self._none_mask[idx], default, out)
        return out

    def __contains__(self, addr: "IPv4Address | int | str") -> bool:
        return self.lookup(addr) is not None

    def __len__(self) -> int:
        return self._size

    @property
    def intervals(self) -> int:
        """Number of distinct-value elementary intervals (diagnostics)."""
        return len(self._starts)


#: Slow trie lookups tolerated after a mutation before ``PrefixTable``
#: recompiles its flat fast path (keeps insert/lookup interleavings cheap).
_COMPILE_AFTER_LOOKUPS = 16


class PrefixTable(Generic[T]):
    """Binary trie mapping prefixes to values with longest-prefix match.

    The workhorse behind routing tables, ownership registries, and the
    adaptive device's "is this packet owned by a registered user?" redirect
    decision (paper Sec. 4.1/Fig. 2).

    Lookup-heavy phases run on a compiled flat-interval snapshot
    (:class:`CompiledPrefixTable`) built automatically once enough lookups
    hit an unchanged table; ``insert``/``remove`` invalidate it, so
    correctness never depends on callers knowing about compilation.

    >>> t = PrefixTable()
    >>> t.insert(Prefix.parse("10.0.0.0/8"), "coarse")
    >>> t.insert(Prefix.parse("10.1.0.0/16"), "fine")
    >>> t.lookup(IPv4Address.parse("10.1.2.3"))
    'fine'
    >>> t.lookup(IPv4Address.parse("10.9.0.1"))
    'coarse'
    """

    def __init__(self) -> None:
        self._root: _TrieNode[T] = _TrieNode()
        self._size = 0
        self._version = 0
        self._compiled: Optional[CompiledPrefixTable[T]] = None
        self._lookups_since_change = 0

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every ``insert``/``remove``."""
        return self._version

    def _invalidate(self) -> None:
        self._version += 1
        self._compiled = None
        self._lookups_since_change = 0

    def compile(self) -> CompiledPrefixTable[T]:
        """Freeze the current rule set into a flat-interval LPM table.

        The snapshot is cached and served to subsequent ``lookup`` calls
        until the next mutation.
        """
        if self._compiled is None:
            self._compiled = CompiledPrefixTable(self)
        return self._compiled

    def insert(self, prefix: Prefix, value: T) -> None:
        """Insert or replace the value for an exact prefix."""
        node = self._root
        for i in range(prefix.length):
            bit = (prefix.base >> (31 - i)) & 1
            nxt = node.children[bit]
            if nxt is None:
                nxt = _TrieNode()
                node.children[bit] = nxt
            node = nxt
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True
        self._invalidate()

    def remove(self, prefix: Prefix) -> bool:
        """Remove an exact prefix; returns True if it was present."""
        node = self._root
        for i in range(prefix.length):
            bit = (prefix.base >> (31 - i)) & 1
            nxt = node.children[bit]
            if nxt is None:
                return False
            node = nxt
        if node.has_value:
            node.has_value = False
            node.value = None
            self._size -= 1
            self._invalidate()
            return True
        return False

    def _lookup_trie(self, addr: "IPv4Address | int | str") -> Optional[T]:
        """The original bit-by-bit trie walk (slow path, always correct)."""
        value = self._root.value if self._root.has_value else None
        node = self._root
        a = _as_int(addr)
        if a >> 32:
            raise _out_of_range(a)
        for i in range(32):
            node = node.children[(a >> (31 - i)) & 1]  # type: ignore[assignment]
            if node is None:
                break
            if node.has_value:
                value = node.value
        return value

    def lookup(self, addr: "IPv4Address | int | str") -> Optional[T]:
        """Longest-prefix-match lookup; None when nothing matches.
        An address outside the 32-bit space raises AddressError."""
        compiled = self._compiled
        if compiled is not None:
            a = addr if type(addr) is int else _as_int(addr)
            if a >> 32:
                raise _out_of_range(a)
            return compiled._values[bisect_right(compiled._starts, a) - 1]
        self._lookups_since_change += 1
        if self._lookups_since_change >= _COMPILE_AFTER_LOOKUPS:
            return self.compile().lookup(addr)
        return self._lookup_trie(addr)

    def lookup_many(self, addrs) -> np.ndarray:
        """Vectorised LPM over a batch of addresses (compiles if needed)."""
        return self.compile().lookup_many(addrs)

    def lookup_many_int(self, addrs, default: int = -1) -> np.ndarray:
        """Vectorised int64 LPM for int-valued tables (compiles if needed)."""
        return self.compile().lookup_many_int(addrs, default=default)

    def covering(self, prefix: Prefix) -> Iterator[tuple[Prefix, T]]:
        """Yield stored entries whose prefix covers ``prefix``, shortest
        first (at most 33 — one per level on the trie path)."""
        node: Optional[_TrieNode[T]] = self._root
        if node.has_value:
            yield Prefix(0, 0), node.value  # type: ignore[misc]
        base = 0
        for i in range(prefix.length):
            bit = (prefix.base >> (31 - i)) & 1
            node = node.children[bit]
            if node is None:
                return
            base |= bit << (31 - i)
            if node.has_value:
                yield Prefix(base, i + 1), node.value  # type: ignore[misc]

    def lookup_exact(self, prefix: Prefix) -> Optional[T]:
        """Exact-prefix lookup (no LPM)."""
        node = self._root
        for i in range(prefix.length):
            bit = (prefix.base >> (31 - i)) & 1
            nxt = node.children[bit]
            if nxt is None:
                return None
            node = nxt
        return node.value if node.has_value else None

    def items(self) -> Iterator[tuple[Prefix, T]]:
        """Iterate all (prefix, value) pairs in trie order."""
        stack: list[tuple[_TrieNode[T], int, int]] = [(self._root, 0, 0)]
        while stack:
            node, base, depth = stack.pop()
            if node.has_value:
                yield Prefix(base, depth), node.value  # type: ignore[misc]
            for bit in (1, 0):
                child = node.children[bit]
                if child is not None:
                    stack.append((child, base | (bit << (31 - depth)), depth + 1))

    def __contains__(self, addr: "IPv4Address | int | str") -> bool:
        return self.lookup(addr) is not None

    def __len__(self) -> int:
        return self._size


class AddressAllocator:
    """Hands out disjoint prefixes and host addresses from a super-block.

    Each AS in a topology receives one prefix; hosts inside the AS receive
    consecutive addresses from it.  Mirrors how RIRs delegate blocks, which
    is exactly the database the paper's TCSP queries (Fig. 4, "Internet
    number authority").
    """

    def __init__(self, block: Prefix | str = "10.0.0.0/8") -> None:
        self.block = Prefix.parse(block) if isinstance(block, str) else block
        self._next = self.block.base
        self._allocated: list[Prefix] = []

    def allocate_prefix(self, length: int = 24) -> Prefix:
        """Allocate the next available prefix of the given length."""
        if length < self.block.length:
            raise AddressError(f"/{length} larger than pool {self.block}")
        step = 1 << (32 - length)
        base = (self._next + step - 1) & ~(step - 1)  # align up
        if base + step > self.block.base + self.block.num_addresses:
            raise AddressError(f"pool {self.block} exhausted")
        self._next = base + step
        prefix = Prefix(base, length)
        self._allocated.append(prefix)
        return prefix

    @property
    def allocated(self) -> list[Prefix]:
        return list(self._allocated)


class HostAddressPool:
    """Sequential host addresses within one prefix (skipping the base)."""

    def __init__(self, prefix: Prefix) -> None:
        self.prefix = prefix
        self._next = prefix.base + 1

    def next_address(self) -> IPv4Address:
        """Allocate the next host address in the prefix."""
        if self._next > int(self.prefix.last):
            raise AddressError(f"prefix {self.prefix} has no free host addresses")
        addr = IPv4Address(self._next)
        self._next += 1
        return addr


def summarize(prefixes: Iterable[Prefix]) -> list[Prefix]:
    """Remove prefixes covered by shorter ones in the input.

    Used when registering ownership: ``10.0.0.0/8`` subsumes ``10.1.0.0/16``.
    """
    result: list[Prefix] = []
    for p in sorted(set(prefixes), key=lambda q: (q.length, q.base)):
        if not any(existing.contains_prefix(p) for existing in result):
            result.append(p)
    return result

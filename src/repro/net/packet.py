"""Packet model: IP header plus the TCP/UDP/ICMP fields the paper's
components match on ("rules that match traffic by header fields, payload (or
payload hashes), or timing characteristics", Sec. 4.2).

A packet carries *ground truth* that the simulated network never gets to see
— ``true_origin`` (the node that really generated it) and ``spoofed`` — so
experiments can measure how well each mitigation identifies attack sources
(the paper's central argument about reflector attacks hinges on this
distinction).
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.net.addressing import IPv4Address, _as_int

__all__ = ["Protocol", "TCPFlags", "ICMPType", "Packet", "PacketBatch"]

_packet_ids = itertools.count(1)

DEFAULT_TTL = 64
IP_HEADER_BYTES = 20


class Protocol(enum.Enum):
    """IP protocol numbers used in the simulations."""

    ICMP = 1
    TCP = 6
    UDP = 17

    # members are singletons compared by identity (pickling returns the
    # same member), so the identity hash agrees with ==; it runs in C,
    # where Enum's own hashes the member name in Python on every probe
    __hash__ = object.__hash__


class TCPFlags(enum.Flag):
    """TCP flag bits relevant to the attack scenarios."""

    NONE = 0
    SYN = enum.auto()
    ACK = enum.auto()
    RST = enum.auto()
    FIN = enum.auto()

    @property
    def is_syn(self) -> bool:
        return bool(self & TCPFlags.SYN) and not bool(self & TCPFlags.ACK)

    @property
    def is_synack(self) -> bool:
        return bool(self & TCPFlags.SYN) and bool(self & TCPFlags.ACK)


class ICMPType(enum.Enum):
    """ICMP message types named in the paper (Sec. 2.1, 4.3)."""

    ECHO_REQUEST = 8
    ECHO_REPLY = 0
    HOST_UNREACHABLE = 3
    TIME_EXCEEDED = 11


@dataclass(slots=True)
class Packet:
    """A simulated IP packet.

    Header fields (visible to the network and to adaptive devices):

    * ``src``/``dst`` — IPv4 addresses,
    * ``ttl`` — decremented per hop, packet dropped at 0,
    * ``proto`` + ``sport``/``dport``/``flags``/``icmp_type``,
    * ``size`` — total bytes on the wire (headers + payload),
    * ``payload_digest`` — hash of the payload; components may match on it
      and the payload scrubber may delete the payload (size shrinks).

    Ground-truth fields (visible only to the experiment harness):

    * ``true_origin`` — identifier of the node that generated the packet,
    * ``spoofed`` — whether ``src`` was forged,
    * ``kind`` — free-form label ("legit", "attack", "reflected", ...) used
      for goodput/collateral accounting.
    """

    src: IPv4Address
    dst: IPv4Address
    proto: Protocol = Protocol.UDP
    size: int = 512
    ttl: int = DEFAULT_TTL
    sport: int = 0
    dport: int = 0
    flags: TCPFlags = TCPFlags.NONE
    icmp_type: Optional[ICMPType] = None
    payload_digest: bytes = b""
    # --- ground truth (never consulted by network elements) ---
    true_origin: Optional[str] = None
    spoofed: bool = False
    kind: str = "legit"
    flow_id: int = 0
    uid: int = field(default_factory=lambda: next(_packet_ids))
    created_at: float = 0.0
    # --- traceback support: probabilistic packet marking writes here ---
    marking: Optional[tuple[str, str, int]] = None
    # --- overlay/i3 indirection: ultimate destination carried end-to-end ---
    overlay_dst: Optional[IPv4Address] = None

    def __post_init__(self) -> None:
        if self.size < IP_HEADER_BYTES:
            self.size = IP_HEADER_BYTES

    def copy(self, **changes) -> "Packet":
        """A copy with a fresh uid (and any field overrides)."""
        changes.setdefault("uid", next(_packet_ids))
        return replace(self, **changes)

    def digest(self) -> bytes:
        """SPIE-style packet digest over the invariant header fields.

        Real SPIE hashes the first invariant 28 bytes of a packet; we hash
        the fields that survive forwarding unchanged (everything except TTL
        and the marking field).
        """
        h = hashlib.blake2b(digest_size=8)
        h.update(int(self.src).to_bytes(4, "big"))
        h.update(int(self.dst).to_bytes(4, "big"))
        h.update(bytes([self.proto.value]))
        h.update(self.sport.to_bytes(2, "big"))
        h.update(self.dport.to_bytes(2, "big"))
        h.update(self.flags.value.to_bytes(2, "big"))
        h.update(self.size.to_bytes(4, "big"))
        h.update(self.uid.to_bytes(8, "big"))
        h.update(self.payload_digest)
        return h.digest()

    @classmethod
    def tcp_syn(cls, src: IPv4Address, dst: IPv4Address, dport: int = 80, **kw) -> "Packet":
        """A minimal TCP SYN (the reflector-attack request of Fig. 1)."""
        kw.setdefault("size", 40)
        return cls(src=src, dst=dst, proto=Protocol.TCP, flags=TCPFlags.SYN, dport=dport, **kw)

    @classmethod
    def tcp_synack(cls, src: IPv4Address, dst: IPv4Address, sport: int = 80, **kw) -> "Packet":
        """The SYN/ACK a reflector returns toward the (spoofed) victim."""
        kw.setdefault("size", 40)
        return cls(
            src=src, dst=dst, proto=Protocol.TCP,
            flags=TCPFlags.SYN | TCPFlags.ACK, sport=sport, **kw,
        )

    @classmethod
    def tcp_rst(cls, src: IPv4Address, dst: IPv4Address, **kw) -> "Packet":
        """A TCP RST (protocol-misuse teardown attack, Sec. 2.1/4.3)."""
        kw.setdefault("size", 40)
        return cls(src=src, dst=dst, proto=Protocol.TCP, flags=TCPFlags.RST, **kw)

    @classmethod
    def icmp(cls, src: IPv4Address, dst: IPv4Address, icmp_type: ICMPType, **kw) -> "Packet":
        """An ICMP message of the given type."""
        kw.setdefault("size", 56)
        return cls(src=src, dst=dst, proto=Protocol.ICMP, icmp_type=icmp_type, **kw)

    @classmethod
    def udp(cls, src: IPv4Address, dst: IPv4Address, dport: int = 53, size: int = 512, **kw) -> "Packet":
        """A UDP datagram (flood / DNS-style traffic)."""
        return cls(src=src, dst=dst, proto=Protocol.UDP, dport=dport, size=size, **kw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" {self.flags.name}" if self.proto is Protocol.TCP else ""
        return (
            f"Packet#{self.uid}({self.proto.name}{extra} {self.src}->{self.dst} "
            f"size={self.size} ttl={self.ttl} kind={self.kind})"
        )


def _addr_column(values, n: Optional[int] = None) -> np.ndarray:
    """Coerce addresses (ints, IPv4Address, dotted quads, or a scalar to
    broadcast over ``n``) into an int64 column."""
    if isinstance(values, (int, np.integer, str, IPv4Address)):
        if n is None:
            raise SimulationError("scalar address needs a batch length")
        return np.full(n, _as_int(values), dtype=np.int64)
    arr = np.asarray(values)
    if arr.dtype.kind in "OUS":
        return np.array([_as_int(v) for v in arr.ravel().tolist()],
                        dtype=np.int64)
    return arr.astype(np.int64, copy=True)


def _int_column(values, n: int, *, enum_cls=None) -> np.ndarray:
    """Coerce scalars / sequences (possibly of enums) into an int64 column."""
    if enum_cls is not None and isinstance(values, enum_cls):
        values = values.value
    if isinstance(values, (int, np.integer, float, bool)):
        return np.full(n, int(values), dtype=np.int64)
    arr = np.asarray(values)
    if arr.dtype.kind == "O":
        return np.array([int(v.value) if isinstance(v, enum.Enum) else int(v)
                         for v in arr.ravel().tolist()], dtype=np.int64)
    return arr.astype(np.int64, copy=True)


class PacketBatch:
    """A structure-of-arrays batch of packets (the DPDK-style burst).

    One object carries N packets as parallel NumPy columns, so the data
    plane can amortise per-packet event dispatch into per-batch array
    operations: one heap event per batch, one drop-tail decision pass per
    link, one vectorised LPM per router hop.

    Columns (all length N, int64 unless noted):

    * ``src`` / ``dst`` — addresses as raw 32-bit values,
    * ``size`` / ``ttl`` / ``sport`` / ``dport`` / ``flow_id``,
    * ``proto`` / ``flags`` / ``icmp`` — enum *values* (``icmp`` uses -1
      for "no ICMP type"),
    * ``kind_code`` + shared ``kinds`` vocabulary tuple — ground-truth
      labels, bincount-able,
    * ``spoofed`` (bool), ``created_at`` (float64).

    Scalar-fallback contract: a batch carries only header and accounting
    fields.  Per-packet extras (``payload_digest``, ``true_origin``,
    ``marking``, ``overlay_dst``, ``uid``) do not batch; paths that need
    them (responders, record hosts, router filters, traceback marking)
    materialise scalar :class:`Packet` objects via :meth:`to_packets` and
    take the scalar code path.  ``to_packets`` therefore returns packets
    with those fields at their defaults and fresh uids.
    """

    __slots__ = ("src", "dst", "size", "ttl", "proto", "sport", "dport",
                 "flags", "icmp", "flow_id", "kind_code", "kinds",
                 "spoofed", "created_at")

    def __init__(self, src, dst, *, size=512, ttl=DEFAULT_TTL,
                 proto=Protocol.UDP, sport=0, dport=0, flags=TCPFlags.NONE,
                 icmp_type=None, flow_id=0, kind="legit", spoofed=False,
                 created_at=0.0, kinds: Optional[tuple] = None,
                 kind_code=None) -> None:
        self.src = _addr_column(src)
        n = len(self.src)
        self.dst = _addr_column(dst, n)
        self.size = np.maximum(_int_column(size, n), IP_HEADER_BYTES)
        self.ttl = _int_column(ttl, n)
        self.proto = _int_column(proto, n, enum_cls=Protocol)
        self.sport = _int_column(sport, n)
        self.dport = _int_column(dport, n)
        self.flags = _int_column(flags, n, enum_cls=TCPFlags)
        if icmp_type is None:
            self.icmp = np.full(n, -1, dtype=np.int64)
        else:
            self.icmp = _int_column(icmp_type, n, enum_cls=ICMPType)
        self.flow_id = _int_column(flow_id, n)
        if kind_code is not None:
            if kinds is None:
                raise SimulationError("kind_code column needs a kinds vocabulary")
            self.kind_code = np.asarray(kind_code, dtype=np.int64).copy()
            self.kinds = tuple(kinds)
        elif isinstance(kind, str):
            self.kind_code = np.zeros(n, dtype=np.int64)
            self.kinds = (kind,)
        else:
            vocab: dict[str, int] = {}
            codes = np.empty(n, dtype=np.int64)
            for i, k in enumerate(kind):
                codes[i] = vocab.setdefault(k, len(vocab))
            self.kind_code = codes
            self.kinds = tuple(vocab)
        if isinstance(spoofed, (bool, np.bool_)):
            self.spoofed = np.full(n, bool(spoofed), dtype=bool)
        else:
            self.spoofed = np.asarray(spoofed, dtype=bool).copy()
        if isinstance(created_at, (int, float, np.floating)):
            self.created_at = np.full(n, float(created_at), dtype=np.float64)
        else:
            self.created_at = np.asarray(created_at, dtype=np.float64).copy()
        for column in (self.dst, self.size, self.ttl, self.proto, self.sport,
                       self.dport, self.flags, self.icmp, self.flow_id,
                       self.kind_code, self.spoofed, self.created_at):
            if len(column) != n:
                raise SimulationError(
                    f"PacketBatch column length mismatch: {len(column)} != {n}")

    # ------------------------------------------------------------ factories
    @classmethod
    def udp(cls, src, dst, *, dport: int = 53, size: int = 512,
            **kw) -> "PacketBatch":
        """A burst of UDP datagrams (flood / DNS-style traffic)."""
        return cls(src, dst, proto=Protocol.UDP, dport=dport, size=size, **kw)

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketBatch":
        """Pack scalar packets into a batch (header/accounting fields only —
        see the scalar-fallback contract in the class docstring)."""
        return cls(
            src=[p.src.value for p in packets],
            dst=[p.dst.value for p in packets],
            size=[p.size for p in packets],
            ttl=[p.ttl for p in packets],
            proto=[p.proto.value for p in packets],
            sport=[p.sport for p in packets],
            dport=[p.dport for p in packets],
            flags=[p.flags.value for p in packets],
            icmp_type=[-1 if p.icmp_type is None else p.icmp_type.value
                       for p in packets],
            flow_id=[p.flow_id for p in packets],
            kind=[p.kind for p in packets],
            spoofed=[p.spoofed for p in packets],
            created_at=[p.created_at for p in packets],
        )

    @classmethod
    def concat(cls, batches: Iterable["PacketBatch"]) -> "PacketBatch":
        """Concatenate batches, merging their kind vocabularies."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls(src=np.empty(0, dtype=np.int64),
                       dst=np.empty(0, dtype=np.int64))
        vocab: dict[str, int] = {}
        codes = []
        for b in batches:
            remap = np.array([vocab.setdefault(k, len(vocab))
                              for k in b.kinds], dtype=np.int64)
            codes.append(remap[b.kind_code] if len(b.kinds) else b.kind_code)
        out = object.__new__(cls)
        for name in ("src", "dst", "size", "ttl", "proto", "sport", "dport",
                     "flags", "icmp", "flow_id", "spoofed", "created_at"):
            setattr(out, name,
                    np.concatenate([getattr(b, name) for b in batches]))
        out.kind_code = np.concatenate(codes)
        out.kinds = tuple(vocab)
        return out

    # ------------------------------------------------------------- views
    def __len__(self) -> int:
        return len(self.src)

    @property
    def total_bytes(self) -> int:
        return int(self.size.sum())

    def select(self, index) -> "PacketBatch":
        """A new batch of the rows picked by a boolean mask or index array
        (columns are copied by fancy indexing; the vocabulary is shared)."""
        out = object.__new__(PacketBatch)
        for name in ("src", "dst", "size", "ttl", "proto", "sport", "dport",
                     "flags", "icmp", "flow_id", "kind_code", "spoofed",
                     "created_at"):
            setattr(out, name, getattr(self, name)[index])
        out.kinds = self.kinds
        return out

    def kind_counts(self) -> dict[str, int]:
        """Packets per ground-truth kind (bincount over the code column)."""
        counts = np.bincount(self.kind_code, minlength=len(self.kinds))
        return {k: int(c) for k, c in zip(self.kinds, counts) if c}

    def bytes_by_kind(self) -> dict[str, int]:
        """Bytes per ground-truth kind."""
        totals = np.bincount(self.kind_code, weights=self.size,
                             minlength=len(self.kinds))
        return {k: int(t) for k, t in zip(self.kinds, totals) if t}

    # ----------------------------------------------------- scalar fallback
    def packet_at(self, i: int) -> Packet:
        """Materialise row ``i`` as a scalar :class:`Packet` (fresh uid;
        non-batched fields at their defaults)."""
        icmp = int(self.icmp[i])
        return Packet(
            src=IPv4Address(int(self.src[i])),
            dst=IPv4Address(int(self.dst[i])),
            proto=Protocol(int(self.proto[i])),
            size=int(self.size[i]),
            ttl=int(self.ttl[i]),
            sport=int(self.sport[i]),
            dport=int(self.dport[i]),
            flags=TCPFlags(int(self.flags[i])),
            icmp_type=None if icmp < 0 else ICMPType(icmp),
            spoofed=bool(self.spoofed[i]),
            kind=self.kinds[int(self.kind_code[i])],
            flow_id=int(self.flow_id[i]),
            created_at=float(self.created_at[i]),
        )

    def to_packets(self) -> list[Packet]:
        """Materialise every row (the scalar-fallback path)."""
        return [self.packet_at(i) for i in range(len(self))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(f"{k}={c}" for k, c in self.kind_counts().items())
        return f"PacketBatch(n={len(self)}, bytes={self.total_bytes}, {kinds})"

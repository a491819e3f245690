"""Packet-processing components for the adaptive device (paper Sec. 4.2).

"In the context of DDoS attack mitigation, we think of firewall-like
services like anti-spoofing filtering, packet dropping, payload deletion,
source IP blacklisting or traffic rate limiting.  Rules that match traffic
by header fields, payload (or payload hashes), or timing characteristics
etc. can be installed, configured and activated instantly."

Every component **declares its capabilities** (may it drop? shrink? which
header fields does it write? how much side-channel traffic does it emit?).
Static vetting (:mod:`repro.core.safety`) admits only declarations that
respect the Sec. 4.5 restrictions, and the runtime monitor catches
components whose behaviour contradicts their declaration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TYPE_CHECKING

from repro.errors import ReproError
from repro.net.addressing import Prefix
from repro.net.packet import IP_HEADER_BYTES, ICMPType, Packet, Protocol, TCPFlags
from repro.obs.metrics import declare
from repro.util.bloom import DigestBacklog
from repro.util.sketch import SpaceSaving
from repro.util.stats import WindowedCounter
from repro.util.tokenbucket import TokenBucket

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ownership import NetworkUser

_HEAVY_HITTERS = declare(
    "trigger.heavy_hitters", "counter", labels=("asn",),
    help="offending sources identified at trigger firings")
_PROCESSED = declare(
    "component.processed", "counter", labels=("component",),
    help="packets processed per component")
_DROPPED = declare(
    "component.dropped", "counter", labels=("component",),
    help="packets dropped per component")

__all__ = [
    "Verdict", "Capabilities", "ComponentContext", "Component",
    "HeaderMatch", "HeaderFilter", "PrefixBlacklist", "RateLimiterComponent",
    "PayloadHashFilter", "PayloadScrubber", "SourceAntiSpoof",
    "LoggerComponent", "StatisticsCollector", "TriggerComponent",
    "DigestStoreComponent",
]

#: token-bucket depth of :class:`RateLimiterComponent`, in bytes
BURST_BYTES = 15_000.0
#: log lines one :class:`LoggerComponent` keeps
MAX_LOG_ENTRIES = 10_000
#: seconds of arrivals behind :class:`StatisticsCollector`'s rates
STATS_WINDOW = 1.0
#: a fired :class:`TriggerComponent` re-arms below this share of its threshold
REARM = 0.5


class Verdict(enum.Enum):
    """Outcome of one component's processing of one packet."""

    PASS = "pass"
    DROP = "drop"


#: the verdicts for per-packet code: on CPython 3.11 ``EnumType.__getattr__``
#: makes a ``Verdict.PASS`` read cost about five module-global reads
PASS, DROP = Verdict.PASS, Verdict.DROP


@dataclass(frozen=True)
class Capabilities:
    """A component's declared behaviour, checked by static vetting.

    * ``modifies_headers`` — header fields the component writes.  Sec. 4.5
      forbids ``src``, ``dst`` and ``ttl`` outright.
    * ``max_outputs_per_input`` — must be <= 1: "The traffic control must
      not allow the packet rate to increase."
    * ``max_size_ratio`` — must be <= 1: "packet size may only stay the
      same or become smaller."
    * ``extra_traffic_bps`` — side-channel budget for logging/statistics/
      trigger events ("we will allow a reasonable amount of additional
      traffic", footnote 1).
    """

    may_drop: bool = False
    may_shrink: bool = False
    modifies_headers: frozenset[str] = frozenset()
    max_outputs_per_input: int = 1
    max_size_ratio: float = 1.0
    extra_traffic_bps: float = 0.0


@dataclass(slots=True)
class ComponentContext:
    """Everything a component may know about where/when it runs.

    Carries the device's network context (Sec. 4.2: "each such device must
    provide contextual information depending on where it is attached") and
    the processing stage ("source" = the packet's source-owner stage,
    "dest" = destination-owner stage, Fig. 6).
    """

    now: float
    asn: int
    is_transit: bool                   # device sees third-party transit traffic
    local_prefix: Prefix               # the attached AS's own address space
    stage: str                         # "source" | "dest"
    owner: "NetworkUser"
    ingress_asn: Optional[int] = None  # neighbour AS the packet arrived from
    local_origin: bool = False         # packet entered from this AS's customers
    router_drop_rate: float = 0.0      # router state exposed by the operator


class Component:
    """Base class: named, capability-declaring packet processor."""

    capabilities: Capabilities = Capabilities()
    #: Sec. 4.2: components whose behaviour depends on the routing topology
    #: must be adapted or temporarily disabled on routing updates.
    topology_dependent: bool = False
    #: True when ``process`` reads only the flow key (src, dst, proto,
    #: dport) and keeps no state: a decision core may replay its verdicts
    flow_invariant: bool = False

    def __init__(self, name: str) -> None:
        self.name = name
        # registry-backed tallies, bumped by the compiled walk around each
        # ``process`` call; ``processed``/``dropped`` are views below
        self._m_processed = _PROCESSED.labelled(component=name)
        self._m_dropped = _DROPPED.labelled(component=name)

    @property
    def processed(self) -> int:
        return self._m_processed.value

    @property
    def dropped(self) -> int:
        return self._m_dropped.value

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


# --------------------------------------------------------------------- filters
@dataclass(frozen=True)
class HeaderMatch:
    """Declarative header predicate ("rules that match traffic by header
    fields", Sec. 4.2).  All given conditions must hold."""

    proto: Optional[Protocol] = None
    sport: Optional[int] = None
    dport: Optional[int] = None
    #: negative port condition: match only when dport is NOT one of these
    #: (e.g. "all UDP except my service ports")
    dport_not_in: tuple[int, ...] = ()
    flags_any: Optional[TCPFlags] = None
    src_prefix: Optional[Prefix] = None
    dst_prefix: Optional[Prefix] = None
    min_size: Optional[int] = None
    max_size: Optional[int] = None
    icmp_type: Optional[ICMPType] = None

    def __post_init__(self) -> None:
        # packet fields hold enum members and are compared by identity, so
        # a raw number (proto=17) would silently match nothing
        for name, enum_type in (("proto", Protocol), ("icmp_type", ICMPType),
                                ("flags_any", TCPFlags)):
            value = getattr(self, name)
            if value is None:
                continue
            try:
                object.__setattr__(self, name, enum_type(value))
            except ValueError:
                raise ReproError(
                    f"HeaderMatch {name}: {value!r} is not a "
                    f"{enum_type.__name__}") from None

    def matches(self, packet: Packet) -> bool:
        if self.proto is not None and packet.proto is not self.proto:
            return False
        if self.sport is not None and packet.sport != self.sport:
            return False
        if self.dport is not None and packet.dport != self.dport:
            return False
        if self.dport_not_in and packet.dport in self.dport_not_in:
            return False
        if self.flags_any is not None and not (packet.flags & self.flags_any):
            return False
        if self.src_prefix is not None and not self.src_prefix.contains(packet.src):
            return False
        if self.dst_prefix is not None and not self.dst_prefix.contains(packet.dst):
            return False
        if self.min_size is not None and packet.size < self.min_size:
            return False
        if self.max_size is not None and packet.size > self.max_size:
            return False
        if self.icmp_type is not None and packet.icmp_type is not self.icmp_type:
            return False
        return True


class HeaderFilter(Component):
    """Drop packets matching a header predicate (firewall rule)."""

    capabilities = Capabilities(may_drop=True)

    def __init__(self, name: str, match: HeaderMatch) -> None:
        super().__init__(name)
        self._match = match
        self.flow_invariant = (match.sport is None and match.flags_any is None
                               and match.min_size is None and match.max_size is None
                               and match.icmp_type is None)

    @property
    def match(self) -> HeaderMatch:
        """Read-only, so no replayed verdict outlives its rule."""
        return self._match

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        return DROP if self._match.matches(packet) else PASS


class PrefixBlacklist(Component):
    """Drop packets whose source lies in any blacklisted prefix
    ("source IP blacklisting", Sec. 4.2)."""

    capabilities = Capabilities(may_drop=True)

    def __init__(self, name: str, prefixes: Iterable[Prefix] = ()) -> None:
        super().__init__(name)
        self.prefixes: list[Prefix] = list(prefixes)

    def add(self, prefix: Prefix) -> None:
        if prefix not in self.prefixes:
            self.prefixes.append(prefix)

    def remove(self, prefix: Prefix) -> None:
        self.prefixes = [p for p in self.prefixes if p != prefix]

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        for prefix in self.prefixes:
            if prefix.contains(packet.src):
                return DROP
        return PASS


class RateLimiterComponent(Component):
    """Token-bucket byte-rate limiter ("traffic rate limiting")."""

    capabilities = Capabilities(may_drop=True)

    def __init__(self, name: str, rate_bps: float) -> None:
        super().__init__(name)
        self.bucket = TokenBucket(rate=rate_bps / 8.0, burst=BURST_BYTES)

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        return PASS if self.bucket.admit(ctx.now, cost=packet.size) else DROP


class PayloadHashFilter(Component):
    """Drop packets carrying a banned payload digest ("payload hashes") —
    e.g. a worm's signature."""

    capabilities = Capabilities(may_drop=True)

    def __init__(self, name: str, banned_digests: Iterable[bytes] = ()) -> None:
        super().__init__(name)
        self.banned: set[bytes] = set(banned_digests)

    def ban(self, digest: bytes) -> None:
        self.banned.add(digest)

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        if packet.payload_digest and packet.payload_digest in self.banned:
            return DROP
        return PASS


class PayloadScrubber(Component):
    """Delete the payload, keeping the header ("payload deletion").

    Shrinking is explicitly allowed by Sec. 4.5 ("packet size may only stay
    the same or become smaller").
    """

    capabilities = Capabilities(may_shrink=True)

    def __init__(self, name: str = "scrubber") -> None:
        super().__init__(name)
        self.scrubbed_bytes = 0

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        removed = packet.size - IP_HEADER_BYTES
        if removed > 0:
            self.scrubbed_bytes += removed
            packet.size = IP_HEADER_BYTES
            packet.payload_digest = b""
        return PASS


class SourceAntiSpoof(Component):
    """Context-aware anti-spoofing for the owner's prefixes (Sec. 4.3).

    Deployed by the *owner of the protected prefix*, worldwide: a device at
    a peripheral (non-transit) ISP drops packets that (a) enter the
    Internet there — i.e. come from that ISP's own customers — and (b)
    carry a source address inside the protected prefix even though the
    prefix does not belong to that ISP.  Transit traffic and the owner's
    own uplink are never touched ("Of course, transit traffic, the traffic
    of the peripheral ISP where this web site is attached to ... must not
    be blocked").

    Requires the device context — exactly why Sec. 4.2 says the device must
    know "whether it processes transit traffic ... or only traffic from
    customers of a peripheral ISP".
    """

    capabilities = Capabilities(may_drop=True)
    topology_dependent = True  # relies on the device's stub/transit context

    def __init__(self, name: str, protected: Iterable[Prefix]) -> None:
        super().__init__(name)
        self.protected: list[Prefix] = list(protected)

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        if ctx.is_transit or not ctx.local_origin:
            return PASS
        for prefix in self.protected:
            if prefix.contains(packet.src) and not ctx.local_prefix.overlaps(prefix):
                return DROP
        return PASS


# ----------------------------------------------------------------- observation
class LoggerComponent(Component):
    """Record per-packet log lines (bounded) — "logging data" services."""

    capabilities = Capabilities(extra_traffic_bps=8_000.0)

    def __init__(self, name: str = "logger") -> None:
        super().__init__(name)
        self.entries: list[tuple[float, int, str, int, int]] = []

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        if len(self.entries) < MAX_LOG_ENTRIES:
            self.entries.append(
                (ctx.now, ctx.asn, packet.proto.name, int(packet.src), int(packet.dst))
            )
        return PASS


class StatisticsCollector(Component):
    """Aggregate traffic statistics ("collecting traffic statistics").

    Counts packets/bytes by protocol and tracks a windowed arrival rate —
    the inputs for triggers and for the network-debugging application.
    """

    capabilities = Capabilities(extra_traffic_bps=1_000.0)

    def __init__(self, name: str = "stats") -> None:
        super().__init__(name)
        self.packets_by_proto: dict[str, int] = {}
        self.bytes_by_proto: dict[str, int] = {}
        self.rate = WindowedCounter(STATS_WINDOW)
        self.byte_rate = WindowedCounter(STATS_WINDOW)

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        proto = packet.proto.name
        self.packets_by_proto[proto] = self.packets_by_proto.get(proto, 0) + 1
        self.bytes_by_proto[proto] = self.bytes_by_proto.get(proto, 0) + packet.size
        self.rate.add(ctx.now)
        self.byte_rate.add(ctx.now, packet.size)
        return PASS


class TriggerComponent(Component):
    """Fire an event when a traffic condition exceeds a threshold
    (Sec. 4.4: "Triggers generate events if a specific condition is met and
    thus can be used to signal the activation of a traffic filter
    function").

    ``predicate`` selects which packets count; when the windowed rate
    crosses ``threshold_pps`` the ``action`` callback runs once; the
    trigger re-arms after the rate falls below ``threshold_pps * REARM``.

    ``track_sources`` (> 0) adds a heavy-hitter stream: a SpaceSaving
    tracker over source addresses, reset each tumbling window, so a
    firing identifies *who* is offending (``last_sources``), not just the
    aggregate rate.  With ``per_source_threshold`` set, the trigger also
    fires once per source whose own windowed rate exceeds it — the
    "rate of connection attempts from ... a particular server" reading
    of Sec. 4.4 — independent of the aggregate threshold.
    """

    capabilities = Capabilities(extra_traffic_bps=1_000.0)

    def __init__(self, name: str, threshold_pps: float,
                 action: Callable[[ComponentContext, float], None],
                 predicate: Optional[Callable[[Packet], bool]] = None,
                 window: float = 0.5,
                 track_sources: int = 0,
                 per_source_threshold: Optional[float] = None,
                 hh_min_share: float = 0.05) -> None:
        super().__init__(name)
        # NaN fails every comparison, so it is rejected with the rest
        for knob, value, ok, rule in (
                ("threshold", threshold_pps, 0.0 < threshold_pps < math.inf,
                 "finite and > 0"),
                ("window", window, 0.0 < window < math.inf, "finite and > 0"),
                ("hh_min_share", hh_min_share, 0.0 < hh_min_share <= 1.0,
                 "in (0, 1]"),
                ("per_source_threshold", per_source_threshold,
                 per_source_threshold is None
                 or 0.0 < per_source_threshold < math.inf, "finite and > 0")):
            if not ok:
                raise ReproError(f"trigger {knob} must be {rule}, got {value}")
        if per_source_threshold is not None and track_sources <= 0:
            raise ReproError("per_source_threshold requires track_sources > 0")
        self.threshold_pps = threshold_pps
        self.action = action
        self.predicate = predicate
        self.window = WindowedCounter(window)
        self.window_span = float(window)
        self.armed = True
        self.fired = 0
        self.fired_at: list[float] = []
        self.sources = SpaceSaving(track_sources) if track_sources > 0 else None
        self.per_source_threshold = per_source_threshold
        self.hh_min_share = hh_min_share
        #: sources identified at the most recent firing
        self.last_sources: tuple[int, ...] = ()
        self._fired_sources: set[int] = set()
        self._epoch: Optional[float] = None
        self._m_hh = None

    def _fire(self, ctx: ComponentContext, rate: float,
              sources: tuple[int, ...]) -> None:
        self.fired += 1
        self.fired_at.append(ctx.now)
        self.last_sources = sources
        if sources:
            if self._m_hh is None:
                # triggers on one device share the asn series: join the
                # running total rather than zeroing a namesake's count
                self._m_hh = _HEAVY_HITTERS.labelled(fresh=False,
                                                     asn=str(ctx.asn))
            self._m_hh.value += len(sources)
        self.action(ctx, rate)

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        if self.predicate is None or self.predicate(packet):
            self.window.add(ctx.now)
            tracker = self.sources
            if tracker is not None:
                epoch = ctx.now // self.window_span
                if epoch != self._epoch:
                    self._epoch = epoch
                    tracker.clear()
                tracker.update(int(packet.src))
            rate = self.window.rate(ctx.now)
            if self.armed and rate > self.threshold_pps:
                self.armed = False
                hitters: tuple[int, ...] = ()
                if tracker is not None:
                    hitters = tuple(
                        k for k, _c in tracker.heavy_hitters(self.hh_min_share))
                    self._fired_sources.update(hitters)
                self._fire(ctx, rate, hitters)
            elif not self.armed and rate < self.threshold_pps * REARM:
                self.armed = True
            if (self.per_source_threshold is not None
                    and tracker is not None):
                src = int(packet.src)
                if src not in self._fired_sources:
                    src_rate = tracker.estimate(src) / self.window_span
                    if src_rate > self.per_source_threshold:
                        self._fired_sources.add(src)
                        self._fire(ctx, src_rate, (src,))
        return PASS


class DigestStoreComponent(Component):
    """SPIE-style packet-digest backlog on the TCS (Sec. 4.4: "Our system
    could be used to implement a worldwide packet traceback service such as
    SPIE by storing a backlog of packet hashes")."""

    capabilities = Capabilities(extra_traffic_bps=1_000.0)

    def __init__(self, name: str = "digests", capacity: int = 50_000,
                 window: float = 1.0, max_windows: int = 16) -> None:
        super().__init__(name)
        self.capacity = capacity
        self.window = window
        self.max_windows = max_windows
        #: created on the first packet: its salt is the device's AS number
        self.backlog: Optional[DigestBacklog] = None

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        if self.backlog is None:
            self.backlog = DigestBacklog(self.capacity, self.window,
                                         self.max_windows, salt=ctx.asn % 255)
        self.backlog.add(packet.digest(), ctx.now)
        return PASS

    def saw(self, packet: Packet) -> bool:
        return self.backlog is not None and self.backlog.saw(packet.digest())

"""Network nodes: hosts and AS routers.

``Router`` implements the paper's node architecture (Fig. 2/6): standard IP
forwarding, plus two hooks —

* ``add_filter`` — where baseline mitigations (ingress filtering, pushback
  rate limiters, ...) attach, and
* ``adaptive_device`` — the paper's programmable traffic processing device;
  the router redirects a packet through it *only* when the packet carries a
  registered user's address ("Most traffic will use the direct path through
  the router", Sec. 4.1).

``Host`` carries ground-truth receive counters and pluggable responders
(used to model reflectors: "any server that ... replies with a packet after
it has received a request packet can be misused as a reflector", Sec. 2.2).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Protocol as TypingProtocol

import numpy as np

from repro.net.addressing import IPv4Address, _as_int
from repro.net.link import Link
from repro.net.packet import Packet, PacketBatch
from repro.util.stats import WindowedCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["Node", "Host", "Router", "PacketFilter", "AdaptiveDeviceHook"]

# A packet filter: (packet, router, ingress link or None, now) -> keep?
PacketFilter = Callable[[Packet, "Router", Optional[Link], float], bool]
# A responder: (packet, host, now) -> packets to send back (or None)
Responder = Callable[[Packet, "Host", float], Optional[Iterable[Packet]]]

#: Destinations a router's route cache holds before it starts over.
ROUTE_CACHE_SIZE = 4096


class AdaptiveDeviceHook(TypingProtocol):
    """Interface the router expects from an attached adaptive device."""

    def wants(self, packet: Packet) -> bool:
        """True iff the packet is owned by some registered user here."""
        ...  # pragma: no cover

    def process(self, packet: Packet, now: float,
                ingress: Optional[int]) -> Optional[Packet]:
        """Run the two processing stages; None means the packet was dropped."""
        ...  # pragma: no cover

    def on_routing_update(self) -> list[str]:
        """React to a routing change; returns the affected user ids."""
        ...  # pragma: no cover


class Node:
    """Anything that can terminate a link."""

    def __init__(self, name: str) -> None:
        self.name = name

    def receive(self, packet: Packet, link: Optional[Link]) -> None:  # pragma: no cover
        raise NotImplementedError

    def receive_batch(self, batch: PacketBatch,
                      link: Optional[Link]) -> None:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class Host(Node):
    """An end host attached to a stub AS.

    Receive-side ground truth is tallied in ``received_by_kind`` /
    ``received_bytes_by_kind``; responders may generate reply packets
    (reflector/server behaviour).
    """

    def __init__(self, network: "Network", address: IPv4Address, asn: int,
                 record: bool = False,
                 processing_pps: Optional[float] = None) -> None:
        super().__init__(f"host-{address}")
        self.network = network
        self.address = address
        self.asn = asn
        self.record = record
        #: server CPU model: packets arriving beyond this rate are received
        #: by the NIC but never serviced ("an attacked server's resources
        #: are exhausted before its uplink is overloaded", Sec. 3.1) —
        #: None = unlimited.
        self.processing_pps = processing_pps
        self._proc_window = WindowedCounter(0.1) if processing_pps else None
        self.cpu_dropped = 0
        self.cpu_dropped_by_kind: Counter[str] = Counter()
        self.received_packets = 0
        self.received_bytes = 0
        self.received_by_kind: Counter[str] = Counter()
        self.received_bytes_by_kind: Counter[str] = Counter()
        self.sent_packets = 0
        self.log: list[tuple[float, Packet]] = []
        self.responders: list[Responder] = []
        self.uplink: Optional[Link] = None    # host -> AS router
        self.downlink: Optional[Link] = None  # AS router -> host

    def add_responder(self, responder: Responder) -> None:
        """Register a function that may answer incoming packets."""
        self.responders.append(responder)

    def receive(self, packet: Packet, link: Optional[Link]) -> None:
        now = self.network.sim._now
        if self._proc_window is not None:
            if self._proc_window.rate(now) >= self.processing_pps:
                self.cpu_dropped += 1
                self.cpu_dropped_by_kind[packet.kind] += 1
                return  # CPU exhausted: packet arrives but is never serviced
            self._proc_window.add(now)
        self.received_packets += 1
        self.received_bytes += packet.size
        self.received_by_kind[packet.kind] += 1
        self.received_bytes_by_kind[packet.kind] += packet.size
        if self.record:
            self.log.append((now, packet))
        for responder in self.responders:
            replies = responder(packet, self, now)
            if replies:
                for reply in replies:
                    self.send(reply)

    def receive_batch(self, batch: PacketBatch, link: Optional[Link]) -> None:
        """Batch delivery; counters accumulate per batch.

        Hosts with per-packet behaviour (a CPU model, responders, or a
        record log) take the scalar-fallback path so that behaviour stays
        exact; plain counting hosts — the common case in floods — tally the
        whole batch with a handful of array reductions.
        """
        if self._proc_window is not None or self.responders or self.record:
            for p in batch.to_packets():
                self.receive(p, link)
            return
        self.received_packets += len(batch)
        self.received_bytes += batch.total_bytes
        for kind, count in batch.kind_counts().items():
            self.received_by_kind[kind] += count
        for kind, nbytes in batch.bytes_by_kind().items():
            self.received_bytes_by_kind[kind] += nbytes

    def send(self, packet: Packet) -> bool:
        """Transmit a packet over the access uplink toward the AS router."""
        if self.uplink is None:
            raise RuntimeError(f"{self.name} is not attached to the network")
        self.sent_packets += 1
        sim = self.network.sim
        if packet.created_at == 0.0:
            packet.created_at = sim._now
        return self.uplink.send(packet, sim)

    def send_batch(self, batch: PacketBatch) -> int:
        """Transmit a whole batch over the access uplink; returns the
        number of packets the uplink accepted."""
        if self.uplink is None:
            raise RuntimeError(f"{self.name} is not attached to the network")
        n = len(batch)
        self.sent_packets += n
        unstamped = batch.created_at == 0.0
        if unstamped.any():
            batch.created_at[unstamped] = self.network.sim.now
        rejected = self.uplink.transmit_batch(batch, self.network.sim)
        return n - (0 if rejected is None else len(rejected))

    def reset_stats(self) -> None:
        self.received_packets = self.received_bytes = self.sent_packets = 0
        self.cpu_dropped = 0
        self.cpu_dropped_by_kind.clear()
        self.received_by_kind.clear()
        self.received_bytes_by_kind.clear()
        self.log.clear()


class Router(Node):
    """The single router of one AS.

    Forwarding pipeline per packet (matching paper Fig. 2):

    1. mitigation filters (in registration order; any False drops),
    2. adaptive-device redirect if the device claims ownership of the packet,
    3. TTL decrement (inter-AS hops only) and next-hop forwarding or local
       host delivery.

    Step 3 resolves each destination address once through the topology's
    LPM and the network's routing, then serves it from a bounded per-router
    route cache.  :meth:`Network._reconverge` — the one place routes or
    links change — clears every router's cache.
    """

    def __init__(self, network: "Network", asn: int) -> None:
        super().__init__(f"AS{asn}")
        self.network = network
        self.asn = asn
        self.links: dict[int, Link] = {}       # neighbour asn -> egress link
        self.host_links: dict[int, Link] = {}  # host address value -> downlink
        self.filters: list[tuple[str, PacketFilter]] = []
        self.adaptive_device: Optional[AdaptiveDeviceHook] = None
        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        self.delivered_packets = 0
        self.drops: Counter[str] = Counter()           # reason -> count
        self.drops_by_kind: Counter[tuple[str, str]] = Counter()  # (reason, kind)
        # destination address -> (destination asn, egress link or None)
        self.route_cache: dict[int, tuple[int, Optional[Link]]] = {}

    # ------------------------------------------------------------- filters
    def add_filter(self, name: str, fn: PacketFilter) -> None:
        """Attach a named mitigation filter; duplicates by name are replaced."""
        self.remove_filter(name)
        self.filters.append((name, fn))

    def remove_filter(self, name: str) -> bool:
        before = len(self.filters)
        self.filters = [(n, f) for n, f in self.filters if n != name]
        return len(self.filters) != before

    def has_filter(self, name: str) -> bool:
        return any(n == name for n, _ in self.filters)

    # ---------------------------------------------------------- forwarding
    def _drop(self, packet: Packet, reason: str) -> None:
        self.drops[reason] += 1
        self.drops_by_kind[(reason, packet.kind)] += 1
        self.network.note_drop(self.asn, packet, reason)

    def receive(self, packet: Packet, link: Optional[Link]) -> None:
        now = self.network.sim._now
        for name, fn in self.filters:
            if not fn(packet, self, link, now):
                self._drop(packet, f"filter:{name}")
                return
        device = self.adaptive_device
        if device is not None and device.wants(packet):
            ingress = self._ingress_asn(link)
            processed = device.process(packet, now, ingress)
            if processed is None:
                self._drop(packet, "adaptive-device")
                return
            packet = processed
        self.forward(packet)

    def _drop_batch(self, batch: PacketBatch, reason: str) -> None:
        self.drops[reason] += len(batch)
        for kind, count in batch.kind_counts().items():
            self.drops_by_kind[(reason, kind)] += count
        self.network.note_drop_batch(self.asn, batch, reason)

    def receive_batch(self, batch: PacketBatch, link: Optional[Link]) -> None:
        """Batch ingress: the vectorised mirror of :meth:`receive`.

        Mitigation filters and the adaptive device decide per packet, so
        either one sends the batch through :meth:`receive` row by row.
        Otherwise the batch goes on to :meth:`forward_batch` intact.
        """
        if len(batch) == 0:
            return
        if self.filters or self.adaptive_device is not None:
            for p in batch.to_packets():
                self.receive(p, link)
            return
        self.forward_batch(batch)

    def _ingress_asn(self, link: Optional[Link]) -> Optional[int]:
        """ASN of the neighbour the packet arrived from (None for local/host)."""
        if link is None:
            return None
        src_node = link.src
        if isinstance(src_node, Router):
            return src_node.asn
        return None

    def forward(self, packet: Packet) -> None:
        dst = packet.dst
        key = dst.value if type(dst) is IPv4Address else _as_int(dst)
        route = self.route_cache.get(key)
        if route is None:
            route = self._route(key)
            if route is None:
                self._drop(packet, "no-route")
                return
        dst_asn, egress = route
        if dst_asn == self.asn:
            self._deliver_local(packet)
            return
        if packet.ttl <= 1:
            self._drop(packet, "ttl-expired")
            return
        packet.ttl -= 1
        if egress is None:
            # raises RoutingError if there is no next hop at all
            self.network.routing.next_hop(self.asn, dst_asn)
            self._drop(packet, "no-link")
            return
        size = packet.size
        self.forwarded_packets += 1
        self.forwarded_bytes += size
        # transport-work accounting: one inter-AS hop's worth of bytes
        # ("network resources ... wasted for transporting attack traffic
        # around the globe", Sec. 6)
        net = self.network
        net.byte_hops_by_kind[packet.kind] += size
        if not egress.send(packet, net.sim):
            self._drop(packet, "queue-full")

    def _route(self, key: int) -> Optional[tuple[int, Optional[Link]]]:
        """Resolve and cache ``(destination asn, egress link)`` for a
        destination address; None (not cached) when no AS owns it.

        The next hop is looked up only where one exists, so resolving a
        route never raises: a packet whose TTL expires here is dropped
        before any routing error could surface.
        """
        net = self.network
        dst_asn = net.topology.as_of(key)
        if dst_asn is None:
            return None
        egress = None
        routing = net.routing
        if dst_asn != self.asn and routing.has_route(self.asn, dst_asn):
            egress = self.links.get(routing.next_hop(self.asn, dst_asn))
        if len(self.route_cache) >= ROUTE_CACHE_SIZE:
            self.route_cache.clear()
        route = self.route_cache[key] = (dst_asn, egress)
        return route

    def forward_batch(self, batch: PacketBatch) -> None:
        """Vectorised forwarding: one LPM batch resolves every destination
        AS, TTLs decrement as an array op, and packets sharing a next hop
        leave in one sub-batch per egress link."""
        net = self.network
        dst_asn = net.topology.as_of_many(batch.dst)
        no_route = dst_asn < 0
        if no_route.any():
            self._drop_batch(batch.select(no_route), "no-route")
            routable = ~no_route
            batch = batch.select(routable)
            dst_asn = dst_asn[routable]
            if len(batch) == 0:
                return
        local = dst_asn == self.asn
        if local.any():
            self._deliver_local_batch(batch.select(local))
            if local.all():
                return
            remote = ~local
            batch = batch.select(remote)
            dst_asn = dst_asn[remote]
        expired = batch.ttl <= 1
        if expired.any():
            self._drop_batch(batch.select(expired), "ttl-expired")
            alive = ~expired
            batch = batch.select(alive)
            dst_asn = dst_asn[alive]
            if len(batch) == 0:
                return
        batch.ttl -= 1
        unique_dsts, inverse = np.unique(dst_asn, return_inverse=True)
        hop_of = np.array([net.routing.next_hop(self.asn, int(d)) for d in unique_dsts],
                          dtype=np.int64)
        next_asn = hop_of[inverse]
        for hop in np.unique(hop_of):
            mask = next_asn == hop
            sub = batch.select(mask) if not mask.all() else batch
            egress = self.links.get(int(hop))
            if egress is None:
                self._drop_batch(sub, "no-link")
                continue
            self.forwarded_packets += len(sub)
            self.forwarded_bytes += sub.total_bytes
            for kind, nbytes in sub.bytes_by_kind().items():
                net.byte_hops_by_kind[kind] += nbytes
            rejected = egress.transmit_batch(sub, net.sim)
            if rejected is not None and len(rejected):
                self._drop_batch(rejected, "queue-full")

    def _deliver_local(self, packet: Packet) -> None:
        downlink = self.host_links.get(int(packet.dst))
        if downlink is None:
            self._drop(packet, "no-host")
            return
        self.delivered_packets += 1
        if not downlink.send(packet, self.network.sim):
            self._drop(packet, "queue-full")

    def _deliver_local_batch(self, batch: PacketBatch) -> None:
        dsts = batch.dst
        for value in np.unique(dsts):
            mask = dsts == value
            sub = batch.select(mask) if not mask.all() else batch
            downlink = self.host_links.get(int(value))
            if downlink is None:
                self._drop_batch(sub, "no-host")
                continue
            self.delivered_packets += len(sub)
            rejected = downlink.transmit_batch(sub, self.network.sim)
            if rejected is not None and len(rejected):
                self._drop_batch(rejected, "queue-full")

    def reset_stats(self) -> None:
        self.forwarded_packets = self.forwarded_bytes = self.delivered_packets = 0
        self.drops.clear()
        self.drops_by_kind.clear()

"""The packet-level network: topology + routing + routers + hosts + links,
wired to one discrete-event simulator.

This is the substrate every packet-level experiment runs on.  Construction
is deterministic given the topology and parameters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import TopologyError
from repro.net.addressing import IPv4Address
from repro.net.link import Link
from repro.net.node import Host, Router
from repro.net.packet import Packet
from repro.net.routing import Routing, build_routing
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.util.units import Mbps, ms

__all__ = ["LinkParams", "Network"]


@dataclass(frozen=True)
class LinkParams:
    """Bandwidth/delay/buffer for one link class."""

    bandwidth: float = Mbps(100)
    delay: float = ms(5)
    buffer_bytes: int = 256_000


#: Reasonable defaults per tier pairing; higher tiers get fatter pipes.
DEFAULT_BACKBONE = LinkParams(bandwidth=Mbps(1000), delay=ms(10), buffer_bytes=2_000_000)
DEFAULT_TRANSIT = LinkParams(bandwidth=Mbps(400), delay=ms(8), buffer_bytes=1_000_000)
DEFAULT_EDGE = LinkParams(bandwidth=Mbps(100), delay=ms(5), buffer_bytes=256_000)
DEFAULT_ACCESS = LinkParams(bandwidth=Mbps(20), delay=ms(2), buffer_bytes=64_000)


class Network:
    """A runnable packet-level internetwork.

    >>> from repro.net.topology import TopologyBuilder
    >>> net = Network(TopologyBuilder.line(3))
    >>> a = net.add_host(0); b = net.add_host(2)
    >>> from repro.net.packet import Packet
    >>> _ = a.send(Packet.udp(a.address, b.address, kind="legit"))
    >>> net.run()
    >>> b.received_packets
    1
    """

    def __init__(self, topology: Topology,
                 backbone: LinkParams = DEFAULT_BACKBONE,
                 transit: LinkParams = DEFAULT_TRANSIT,
                 edge: LinkParams = DEFAULT_EDGE,
                 access: LinkParams = DEFAULT_ACCESS,
                 link_params_fn: Optional[Callable[[int, int], LinkParams]] = None) -> None:
        self.topology = topology
        self.sim = Simulator()
        self.routing: Routing = build_routing(topology)
        self.routers: dict[int, Router] = {}
        self.hosts: dict[int, Host] = {}  # address value -> Host
        self.links: dict[tuple[int, int], Link] = {}  # (src asn, dst asn)
        # adjacencies taken down by fail_link, as (a, b) in call order
        self._failed_links: list[tuple[int, int]] = []
        self._access = access
        self.global_drops: Counter[str] = Counter()
        # transport work: bytes x inter-AS hops actually traversed, by kind
        self.byte_hops_by_kind: Counter[str] = Counter()

        for asn in topology.as_numbers:
            self.routers[asn] = Router(self, asn)
        from repro.net.topology import ASRole  # local import to avoid cycle

        def tier_params(a: int, b: int) -> LinkParams:
            ra, rb = topology.role_of(a), topology.role_of(b)
            roles = {ra, rb}
            if roles == {ASRole.CORE}:
                return backbone
            if ASRole.STUB in roles:
                return edge
            return transit

        chooser = link_params_fn or tier_params
        for a, b in topology.graph.edges:
            params_ab = chooser(a, b)
            params_ba = chooser(b, a)
            self._add_link(a, b, params_ab)
            self._add_link(b, a, params_ba)

    def _add_link(self, a: int, b: int, params: LinkParams) -> None:
        link = Link(self.routers[a], self.routers[b], params.bandwidth,
                    params.delay, params.buffer_bytes)
        self.links[(a, b)] = link
        self.routers[a].links[b] = link

    # ------------------------------------------------------------------ hosts
    def add_host(self, asn: int, record: bool = False,
                 access: Optional[LinkParams] = None,
                 processing_pps: Optional[float] = None) -> Host:
        """Create a host in AS ``asn`` with its access links."""
        address = self.topology.add_host(asn)
        host = Host(self, address, asn, record=record,
                    processing_pps=processing_pps)
        params = access or self._access
        router = self.routers[asn]
        host.uplink = Link(host, router, params.bandwidth, params.delay, params.buffer_bytes)
        host.downlink = Link(router, host, params.bandwidth, params.delay, params.buffer_bytes)
        router.host_links[int(address)] = host.downlink
        self.hosts[int(address)] = host
        return host

    def host_at(self, address: IPv4Address | int) -> Host:
        value = int(address)
        try:
            return self.hosts[value]
        except KeyError as exc:
            raise TopologyError(f"no host at {IPv4Address(value)}") from exc

    # --------------------------------------------------------------- plumbing
    def note_drop(self, asn: int, packet: Packet, reason: str) -> None:
        """Router drop callback (byte-hop accounting happens per forwarded
        hop in :meth:`Router.forward`)."""
        self.global_drops[reason] += 1

    def note_drop_batch(self, asn: int, batch, reason: str) -> None:
        """Batch analogue of :meth:`note_drop`: one increment per batch."""
        self.global_drops[reason] += len(batch)

    def path(self, src_asn: int, dst_asn: int) -> list[int]:
        """AS path under the current routing."""
        return self.routing.path(src_asn, dst_asn)

    def link_between(self, a: int, b: int) -> Link:
        try:
            return self.links[(a, b)]
        except KeyError as exc:
            raise TopologyError(f"no link AS{a}->AS{b}") from exc

    # --------------------------------------------------------- topology change
    def fail_link(self, a: int, b: int) -> None:
        """Take the AS adjacency a<->b down and reconverge routing.

        Both directed links are removed, routing is rebuilt,
        and every attached adaptive device is notified ("upon routing
        updates, the configuration of modules that depend on the topology
        can be either automatically adapted or ... temporarily disabled",
        Sec. 4.2).  Raises if the failure would disconnect the graph.
        """
        if not self.topology.graph.has_edge(a, b):
            raise TopologyError(f"no adjacency AS{a} <-> AS{b}")
        import networkx as nx

        self.topology.graph.remove_edge(a, b)
        if not nx.is_connected(self.topology.graph):
            self.topology.graph.add_edge(a, b)
            raise TopologyError(
                f"failing AS{a} <-> AS{b} would partition the Internet"
            )
        self._failed_links.append((a, b))
        for x, y in ((a, b), (b, a)):
            self.routers[x].links.pop(y, None)
            self.links.pop((x, y), None)
        self._reconverge()

    def restore_link(self, a: int, b: int,
                     params: Optional[LinkParams] = None) -> None:
        """Bring a previously failed adjacency back and reconverge."""
        failed = self._failed_links
        if (a, b) not in failed and (b, a) not in failed:
            raise TopologyError(f"AS{a} <-> AS{b} was not failed")
        for pair in ((a, b), (b, a)):
            if pair in failed:
                failed.remove(pair)
        self.topology.graph.add_edge(a, b)
        p = params or DEFAULT_TRANSIT
        self._add_link(a, b, p)
        self._add_link(b, a, p)
        self._reconverge()

    def _reconverge(self) -> None:
        """Recompute routing after a topology change.  This is the single
        invalidation point of every router's route cache."""
        self.routing = build_routing(self.topology)
        for router in self.routers.values():
            router.route_cache.clear()
            device = router.adaptive_device
            if device is not None:
                device.on_routing_update()

    # -------------------------------------------------------------- execution
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until, max_events=max_events)

    def reset_stats(self) -> None:
        """Zero every counter in routers, links and hosts (keep topology)."""
        for router in self.routers.values():
            router.reset_stats()
        for link in self.links.values():
            link.reset_stats()
        for host in self.hosts.values():
            host.reset_stats()
            if host.uplink:
                host.uplink.reset_stats()
            if host.downlink:
                host.downlink.reset_stats()
        self.global_drops.clear()
        self.byte_hops_by_kind.clear()

    # -------------------------------------------------------------- summaries
    def total_received(self, kind: Optional[str] = None) -> int:
        """Packets delivered to all hosts (optionally of one ground-truth kind)."""
        if kind is None:
            return sum(h.received_packets for h in self.hosts.values())
        return sum(h.received_by_kind.get(kind, 0) for h in self.hosts.values())

    def total_dropped(self, reason_prefix: str = "") -> int:
        """Router drops whose reason starts with ``reason_prefix``."""
        return sum(
            count for reason, count in self.global_drops.items()
            if reason.startswith(reason_prefix)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(ases={len(self.routers)}, hosts={len(self.hosts)}, "
            f"links={len(self.links)}, t={self.sim.now:.3f}s)"
        )

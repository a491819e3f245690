"""IP traceback baselines: probabilistic packet marking and SPIE.

* :class:`PPMTraceback` — Savage et al. [19] compressed edge sampling:
  each deployed router overwrites a single marking slot with probability
  ``p`` (edge start, distance 0); the next router completes the edge; all
  further routers increment the distance.  From enough attack packets the
  victim reconstructs the attack tree.

* :class:`SpieTraceback` — Snoeren et al. [21] hash-based traceback:
  deployed routers store packet digests in time-windowed Bloom filters; a
  single packet can later be traced hop by hop by querying which routers
  remember it.

Both are *identification* tools, not defenses — the paper's point: "it
deals with neither detecting attacks nor deploying any dispositions"
(Sec. 3.1), and against reflector attacks the reconstructed sources are
the *reflectors*.  The reactive combination "traceback, then filter the
identified sources" is provided by :class:`TracebackFilter` so E2 can
measure exactly that failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.errors import MitigationError
from repro.mitigation.base import Mitigation
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Host, Router
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.util.bloom import DigestBacklog
from repro.util.rng import derive_rng

__all__ = ["PPMTraceback", "MarkingCollector", "SpieTraceback",
           "SpieQueryResult", "TracebackFilter", "reverse_path"]


class MarkingCollector:
    """Victim-side harvester of PPM markings.

    Attach with ``victim.add_responder(collector.on_packet)``; it records
    the (start, end, distance) edge fragments carried by attack packets.
    """

    def __init__(self, kinds_prefix: str = "attack") -> None:
        self.kinds_prefix = kinds_prefix
        self.markings: Counter[tuple[int, int, int]] = Counter()
        self.packets_seen = 0

    def on_packet(self, packet: Packet, host: Host, now: float) -> None:
        if not packet.kind.startswith(self.kinds_prefix):
            return None
        self.packets_seen += 1
        if packet.marking is not None:
            start, end, dist = packet.marking
            self.markings[(int(start), int(end), int(dist))] += 1
        return None


class PPMTraceback(Mitigation):
    """Probabilistic packet marking (edge sampling)."""

    name = "ppm"

    def __init__(self, p: float = 0.04, seed: int | None = None) -> None:
        super().__init__()
        if not (0.0 < p <= 1.0):
            raise MitigationError(f"marking probability must be in (0,1], got {p}")
        self.p = p
        self._rng = derive_rng(seed, "ppm")
        self.marked = 0

    def deploy(self, network: Network, asns: Iterable[int]) -> None:
        for asn in asns:
            router = network.routers[asn]

            def filt(packet: Packet, router: Router, link: Optional[Link],
                     now: float, asn=asn) -> bool:
                if self._rng.random() < self.p:
                    packet.marking = (asn, -1, 0)
                    self.marked += 1
                elif packet.marking is not None:
                    start, end, dist = packet.marking
                    if dist == 0 and end == -1:
                        packet.marking = (start, asn, 1)
                    else:
                        packet.marking = (start, end, dist + 1)
                return True

            router.add_filter(self.name, filt)
            self.deployed_asns.add(asn)

    # ----------------------------------------------------------- reconstruction
    @staticmethod
    def reconstruct(collector: MarkingCollector,
                    min_count: int = 1) -> dict[tuple[int, int], int]:
        """Edges of the attack tree: (upstream, downstream) -> distance.

        Edges seen fewer than ``min_count`` times are discarded as noise.
        """
        edges: dict[tuple[int, int], int] = {}
        for (start, end, dist), count in collector.markings.items():
            if count < min_count or end == -1:
                continue
            key = (start, end)
            if key not in edges or dist > edges[key]:
                edges[key] = dist
        return edges

    @staticmethod
    def identified_source_asns(collector: MarkingCollector,
                               min_count: int = 1) -> set[int]:
        """ASes the victim concludes the attack originates from.

        Leaves of the reconstructed tree: marking-edge *starts* that never
        appear as the downstream end of another edge.  For direct attacks
        these are the true agent ASes; for reflector attacks they are the
        reflector-side ASes — the paper's negative result.
        """
        edges = PPMTraceback.reconstruct(collector, min_count=min_count)
        starts = {s for s, _ in edges}
        ends = {e for _, e in edges}
        leaves = starts - ends
        # single-edge paths: the start is the source even if also an end elsewhere
        if not leaves and starts:
            max_d = max(edges.values())
            leaves = {s for (s, e), d in edges.items() if d == max_d}
        return leaves


@dataclass
class SpieQueryResult:
    """Outcome of tracing one packet through SPIE digests."""

    path: list[int] = field(default_factory=list)  # victim-adjacent ... origin
    origin_asn: Optional[int] = None
    complete: bool = False  # True when the walk terminated inside coverage


def reverse_path(topology: Topology, victim_asn: int,
                 saw: Callable[[int], bool]) -> list[int]:
    """SPIE's reverse-path walk: the ASes whose stores remember a packet.

    Starts at the victim's AS (included when it saw the packet) and moves,
    at each step, to the first unvisited neighbour for which ``saw`` holds.
    The walk ends when no neighbour saw it: the last AS is the apparent
    origin — for reflected packets, the *reflector's* AS, because the
    reflector generated a fresh packet.
    """
    path = [victim_asn] if saw(victim_asn) else []
    visited = {victim_asn}
    current = victim_asn
    while True:
        step = next((n for n in topology.neighbors(current)
                     if n not in visited and saw(n)), None)
        if step is None:
            return path
        visited.add(step)
        path.append(step)
        current = step


class SpieTraceback(Mitigation):
    """SPIE hash-based traceback with windowed Bloom digest stores."""

    name = "spie"

    def __init__(self, capacity_per_window: int = 50_000, window: float = 1.0,
                 fp_rate: float = 0.001, max_windows: int = 16) -> None:
        super().__init__()
        if window <= 0 or capacity_per_window <= 0:
            raise MitigationError("invalid SPIE parameters")
        self.capacity = capacity_per_window
        self.window = window
        self.fp_rate = fp_rate
        self.max_windows = max_windows
        self.stores: dict[int, DigestBacklog] = {}
        self.network: Optional[Network] = None

    def deploy(self, network: Network, asns: Iterable[int]) -> None:
        self.network = network
        for asn in asns:
            router = network.routers[asn]
            self.stores.setdefault(asn, DigestBacklog(
                self.capacity, self.window, self.max_windows,
                salt=asn % 255, fp_rate=self.fp_rate))

            def filt(packet: Packet, router: Router, link: Optional[Link],
                     now: float, asn=asn) -> bool:
                self._store(asn, packet.digest(), now)
                return True

            router.add_filter(self.name, filt)
            self.deployed_asns.add(asn)

    def _store(self, asn: int, digest: bytes, now: float) -> None:
        self.stores[asn].add(digest, now)

    def saw(self, asn: int, packet: Packet) -> bool:
        """Did the router of ``asn`` forward this packet (within the backlog)?"""
        store = self.stores.get(asn)
        return store is not None and store.saw(packet.digest())

    def trace(self, packet: Packet, victim_asn: int) -> SpieQueryResult:
        """Reverse-path walk (:func:`reverse_path`) from the victim's AS
        over the deployed routers' digest stores."""
        if self.network is None:
            raise MitigationError("SPIE not deployed")
        path = reverse_path(
            self.network.topology, victim_asn,
            lambda asn: asn in self.deployed_asns and self.saw(asn, packet))
        return SpieQueryResult(path=path,
                               origin_asn=path[-1] if path else None,
                               complete=bool(path))


class TracebackFilter(Mitigation):
    """The reactive scheme built on traceback: block identified source ASes.

    Installs a source-prefix blacklist at the given ASes (typically the
    victim's ISP).  Feed it the output of PPM/SPIE identification — when
    the identified "sources" are reflectors, this is exactly the
    counterproductive filtering the paper warns about ("might block access
    to important services, because reflectors often host DNS or web
    servers", Sec. 3.1).
    """

    name = "traceback-filter"

    def __init__(self, blocked_asns: Iterable[int]) -> None:
        super().__init__()
        self.blocked_asns = set(blocked_asns)
        self.dropped = 0

    def deploy(self, network: Network, asns: Iterable[int]) -> None:
        prefixes = [network.topology.prefix_of(a) for a in self.blocked_asns]
        for asn in asns:
            router = network.routers[asn]

            def filt(packet: Packet, router: Router, link: Optional[Link],
                     now: float) -> bool:
                for prefix in prefixes:
                    if prefix.contains(packet.src):
                        self.dropped += 1
                        return False
                return True

            router.add_filter(self.name, filt)
            self.deployed_asns.add(asn)

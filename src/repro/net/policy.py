"""Valley-free BGP-like policy routing.

Shortest-path routing (the default) ignores commercial AS relationships.
This module adds the standard Gao-Rexford model: edges are labelled
customer->provider or peer-peer, and a path is *valley-free* when it
climbs customer->provider links, crosses at most one peer link at the
top, and then descends provider->customer — no AS transits traffic
between two of its providers/peers for free.

Used as an optional, higher-fidelity routing substrate: filter-placement
results (E3/E4) can be recomputed on policy paths, and the tier structure
of :class:`~repro.net.topology.Topology` provides the relationship labels
(provider = the higher tier; same tier = peering).
"""

from __future__ import annotations

import enum
import heapq
from typing import Optional

from repro.errors import RoutingError
from repro.net.topology import ASRole, Topology

__all__ = ["Relationship", "PolicyRouting"]


class Relationship(enum.Enum):
    """Role of the *neighbour* from the local AS's point of view."""

    PROVIDER = "provider"
    PEER = "peer"
    CUSTOMER = "customer"


_TIER_ORDER = {ASRole.CORE: 2, ASRole.TRANSIT: 1, ASRole.STUB: 0}


def infer_relationship(topology: Topology, a: int, b: int) -> Relationship:
    """Relationship of ``b`` as seen from ``a`` (tier-based inference)."""
    ta, tb = _TIER_ORDER[topology.role_of(a)], _TIER_ORDER[topology.role_of(b)]
    if tb > ta:
        return Relationship.PROVIDER
    if tb < ta:
        return Relationship.CUSTOMER
    return Relationship.PEER


class PolicyRouting:
    """Valley-free path computation over a tier-labelled topology.

    Paths are found with a Dijkstra variant over (AS, phase) states where
    phase 0 = still climbing (customer->provider edges allowed), phase 1 =
    crossed the single peer edge, phase 2 = descending (only
    provider->customer edges allowed).  Among valley-free paths the
    shortest (fewest AS hops, deterministic tie-break) is chosen — the
    usual abstraction of BGP's preference rules.
    """

    #: allowed transitions: (phase, relationship of next hop) -> new phase
    _TRANSITIONS = {
        (0, Relationship.PROVIDER): 0,
        (0, Relationship.PEER): 1,
        (0, Relationship.CUSTOMER): 2,
        (1, Relationship.CUSTOMER): 2,
        (2, Relationship.CUSTOMER): 2,
    }

    def __init__(self, topology: Topology,
                 relationships: Optional[dict[tuple[int, int], Relationship]] = None) -> None:
        self.topology = topology
        self._rel: dict[tuple[int, int], Relationship] = {}
        inverse = {
            Relationship.PROVIDER: Relationship.CUSTOMER,
            Relationship.CUSTOMER: Relationship.PROVIDER,
            Relationship.PEER: Relationship.PEER,
        }
        for a, b in topology.graph.edges:
            if relationships and (a, b) in relationships:
                rel_ab = relationships[(a, b)]
                rel_ba = inverse[rel_ab]
            elif relationships and (b, a) in relationships:
                rel_ba = relationships[(b, a)]
                rel_ab = inverse[rel_ba]
            else:
                rel_ab = infer_relationship(topology, a, b)
                rel_ba = infer_relationship(topology, b, a)
            self._rel[(a, b)] = rel_ab
            self._rel[(b, a)] = rel_ba
        self._path_cache: dict[tuple[int, int], Optional[list[int]]] = {}

    def relationship(self, a: int, b: int) -> Relationship:
        """Relationship of ``b`` from ``a``'s point of view."""
        try:
            return self._rel[(a, b)]
        except KeyError as exc:
            raise RoutingError(f"AS {a} and AS {b} are not adjacent") from exc

    def path(self, src: int, dst: int) -> list[int]:
        """Shortest valley-free path ``[src, ..., dst]``.

        Raises :class:`RoutingError` when no valley-free path exists (the
        real-world "no route" situation policy routing creates).
        """
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return list(cached)
        if (src, dst) in self._path_cache:  # cached miss
            raise RoutingError(f"no valley-free path AS{src} -> AS{dst}")
        if src == dst:
            return [src]
        # Dijkstra over (hops, tie, asn, phase)
        best: dict[tuple[int, int], int] = {(src, 0): 0}
        parent: dict[tuple[int, int], tuple[int, int]] = {}
        heap: list[tuple[int, int, int]] = [(0, src, 0)]
        goal: Optional[tuple[int, int]] = None
        while heap:
            hops, asn, phase = heapq.heappop(heap)
            if best.get((asn, phase), -1) != hops:
                continue
            if asn == dst:
                goal = (asn, phase)
                break
            for nxt in sorted(self.topology.graph.neighbors(asn)):
                rel = self._rel[(asn, nxt)]
                new_phase = self._TRANSITIONS.get((phase, rel))
                if new_phase is None:
                    continue
                state = (nxt, new_phase)
                if hops + 1 < best.get(state, 1 << 30):
                    best[state] = hops + 1
                    parent[state] = (asn, phase)
                    heapq.heappush(heap, (hops + 1, nxt, new_phase))
        if goal is None:
            self._path_cache[(src, dst)] = None
            raise RoutingError(f"no valley-free path AS{src} -> AS{dst}")
        path = [goal[0]]
        state = goal
        while state in parent:
            state = parent[state]
            path.append(state[0])
        path.reverse()
        self._path_cache[(src, dst)] = list(path)
        return path

    def has_path(self, src: int, dst: int) -> bool:
        try:
            self.path(src, dst)
            return True
        except RoutingError:
            return False

    def is_valley_free(self, path: list[int]) -> bool:
        """Check an explicit AS path against the Gao-Rexford conditions."""
        phase = 0
        for a, b in zip(path, path[1:]):
            rel = self.relationship(a, b)
            nxt = self._TRANSITIONS.get((phase, rel))
            if nxt is None:
                return False
            phase = nxt
        return True

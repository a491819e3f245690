"""Shortest-path AS routing, shared by the packet network and the fluid model.

Routes are unweighted shortest paths (adequate for all the paper's placement
arguments; BGP policy routing is :mod:`repro.net.policy`).  A :class:`Routing`
builds one BFS tree per root AS the first time that root is asked about, so
a network pays only for the destinations and claimed sources it touches.

Besides next hops and paths, :meth:`Routing.expected_ingress` answers "which
interface did this packet *legitimately* enter from?" — the information
route-based packet filtering (Park & Lee [15], cited in Sec. 3.2) and
pushback's upstream propagation rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import RoutingError, TopologyError
from repro.net.topology import Topology

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Routing", "build_routing"]


class Routing:
    """Shortest-path routes over one snapshot of an AS graph.

    The adjacency lists are copied at construction, so a ``Routing`` keeps
    answering for the graph it was built on after that graph changes
    (:meth:`Network._reconverge` builds a new one) and can memoise its
    answers.  The tree rooted at ``r`` is a BFS from ``r`` visiting
    neighbours in ascending ASN order: a node's parent in it is its next
    hop toward ``r``, and since links are symmetric its distances are also
    hop counts *from* ``r``.
    """

    __slots__ = ("_adj", "_trees", "_ingress")

    def __init__(self, graph: nx.Graph) -> None:
        self._adj: dict[int, list[int]] = {
            asn: sorted(graph.neighbors(asn)) for asn in graph.nodes
        }
        #: root -> (parent toward root, hop distance), built on first use
        self._trees: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
        #: (at, src) -> expected_ingress(at, src)
        self._ingress: dict[tuple[int, int], frozenset[int]] = {}

    def __contains__(self, asn: object) -> bool:
        return asn in self._adj

    def _tree(self, root: int) -> tuple[dict[int, int], dict[int, int]]:
        tree = self._trees.get(root)
        if tree is not None:
            return tree
        adj = self._adj
        if root not in adj:
            raise TopologyError(f"unknown AS {root}")
        parent = {root: root}
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        tree = self._trees[root] = (parent, dist)
        return tree

    def has_route(self, src: int, dst: int) -> bool:
        return dst in self._adj and src in self._tree(dst)[1]

    def next_hop(self, src: int, dst: int) -> int:
        """Neighbour of ``src`` toward ``dst`` (``src`` itself when equal)."""
        if not self.has_route(src, dst):
            raise RoutingError(f"AS {src}: no route to AS {dst}")
        return self._trees[dst][0][src]

    def path(self, src: int, dst: int) -> list[int]:
        """The AS path ``[src, ..., dst]``."""
        parent, dist = self._tree(dst)
        if src not in dist:
            raise RoutingError(f"AS {src} unreachable from AS {dst}")
        path = [src]
        node = src
        while node != dst:
            node = parent[node]
            path.append(node)
        return path

    def distance(self, src: int, dst: int) -> int:
        """Hop count from ``src`` to ``dst``."""
        dist = self._tree(dst)[1]
        if src not in dist:
            raise RoutingError(f"AS {src} unreachable from AS {dst}")
        return dist[src]

    def expected_ingress(self, at: int, src: int) -> frozenset[int]:
        """Neighbours of ``at`` from which traffic sourced at ``src`` may
        arrive: those on some shortest path from ``src`` to ``at``.

        Route-based filtering drops packets arriving on other interfaces.
        An unknown ``src``, or an ``at`` it cannot reach, yields the empty
        set (no interface is legitimate for a bogus address).
        """
        if src not in self._adj:
            return frozenset()
        ingress = self._ingress.get((at, src))
        if ingress is None:
            dist = self._tree(src)[1]
            here = dist.get(at)
            ingress = self._ingress[at, src] = frozenset(
                () if here is None else
                (n for n in self._adj[at] if dist.get(n, -2) + 1 == here))
        return ingress


def build_routing(topology: Topology) -> Routing:
    """Shortest-path routing over ``topology``'s current AS graph."""
    return Routing(topology.graph)

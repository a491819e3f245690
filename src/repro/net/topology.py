"""AS-level Internet topologies.

The paper targets the Internet's autonomous-system structure (Sec. 5.3
discusses "roughly 18'000 autonomous systems"; the route-based filtering
result it cites [15] is stated on *power-law* AS graphs).  We model one
router per AS, links between adjacent ASes, and hosts attached to stub ASes
— the granularity at which every claim in the paper (filter placement,
ingress filtering at "peripheral ISPs", transit vs customer traffic) lives.

Three families of builders:

* ``hierarchical`` — explicit core / transit / stub tiers (the textbook ISP
  hierarchy used in the paper's Figs. 1-3),
* ``powerlaw`` — Barabási–Albert preferential attachment, degree-classified
  into tiers (matches the Park & Lee power-law Internet setting),
* ``internet_like`` — networkx's ``random_internet_as_graph`` (Elmokashfi et
  al. model) with its native tier labels.

Plus ``line``/``star``/``tree`` micro-topologies for tests and examples.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Union

import numpy as np

from repro.errors import TopologyError
from repro.net.addressing import (
    AddressAllocator,
    HostAddressPool,
    IPv4Address,
    Prefix,
    PrefixTable,
)
from repro.util.rng import derive_rng

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ASRole", "ASInfo", "Topology", "TopologyBuilder",
           "parse_as_rel2", "synthesize_as_rel2"]


class ASRole(enum.Enum):
    """Tier of an autonomous system."""

    CORE = "core"        # tier-1 / backbone service provider (BSP)
    TRANSIT = "transit"  # regional transit ISP
    STUB = "stub"        # peripheral ISP / edge network with customers


@dataclass
class ASInfo:
    """Static data of one autonomous system."""

    asn: int
    role: ASRole
    prefix: Prefix
    hosts: list[IPv4Address] = field(default_factory=list)


class Topology:
    """An AS graph plus address plan.

    ``graph`` is an undirected :class:`networkx.Graph` whose nodes are AS
    numbers.  Each AS owns one prefix; hosts are addresses inside it.
    """

    def __init__(self, graph: nx.Graph, prefix_length: int = 24,
                 pool: str = "10.0.0.0/8") -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("empty topology")
        import networkx as nx

        if not nx.is_connected(graph):
            raise TopologyError("topology graph must be connected")
        self.graph = graph
        self.ases: dict[int, ASInfo] = {}
        self.prefix_table: PrefixTable[int] = PrefixTable()
        self._host_pools: dict[int, HostAddressPool] = {}
        self._host_table: dict[int, int] = {}  # address value -> asn
        allocator = AddressAllocator(pool)
        for asn in sorted(graph.nodes):
            role = graph.nodes[asn].get("role", ASRole.STUB)
            prefix = allocator.allocate_prefix(prefix_length)
            info = ASInfo(asn=asn, role=role, prefix=prefix)
            self.ases[asn] = info
            self.prefix_table.insert(prefix, asn)
            self._host_pools[asn] = HostAddressPool(prefix)

    # ------------------------------------------------------------------ hosts
    def add_host(self, asn: int) -> IPv4Address:
        """Attach a new host to ``asn`` and return its address."""
        if asn not in self.ases:
            raise TopologyError(f"unknown AS {asn}")
        addr = self._host_pools[asn].next_address()
        self.ases[asn].hosts.append(addr)
        self._host_table[int(addr)] = asn
        return addr

    # ---------------------------------------------------------------- queries
    def as_of(self, addr: IPv4Address | int | str) -> Optional[int]:
        """The AS owning ``addr`` (longest-prefix match), or None."""
        return self.prefix_table.lookup(addr)

    def as_of_many(self, addrs) -> np.ndarray:
        """Vectorised :meth:`as_of`: an int64 array of AS numbers aligned
        with ``addrs``, with -1 where no AS owns the address."""
        return self.prefix_table.lookup_many_int(addrs, default=-1)

    def role_of(self, asn: int) -> ASRole:
        return self.ases[asn].role

    def prefix_of(self, asn: int) -> Prefix:
        return self.ases[asn].prefix

    def neighbors(self, asn: int) -> list[int]:
        return list(self.graph.neighbors(asn))

    def degree(self, asn: int) -> int:
        return self.graph.degree[asn]

    @property
    def as_numbers(self) -> list[int]:
        return sorted(self.ases)

    def by_role(self, role: ASRole) -> list[int]:
        return [asn for asn, info in sorted(self.ases.items()) if info.role is role]

    @property
    def stub_ases(self) -> list[int]:
        return self.by_role(ASRole.STUB)

    @property
    def transit_ases(self) -> list[int]:
        return self.by_role(ASRole.TRANSIT)

    @property
    def core_ases(self) -> list[int]:
        return self.by_role(ASRole.CORE)

    def __len__(self) -> int:
        return len(self.ases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(ases={len(self.ases)}, links={self.graph.number_of_edges()}, "
            f"core={len(self.core_ases)}, transit={len(self.transit_ases)}, "
            f"stub={len(self.stub_ases)})"
        )


class TopologyBuilder:
    """Factory methods for the topology families used in the experiments."""

    @staticmethod
    def hierarchical(n_core: int = 4, transit_per_core: int = 2,
                     stub_per_transit: int = 4, prefix_length: int = 24,
                     seed: int | None = None) -> Topology:
        """Three-tier ISP hierarchy.

        Core ASes form a full mesh; each core AS feeds ``transit_per_core``
        transit ASes; each transit AS feeds ``stub_per_transit`` stub ASes.
        Extra randomised peering links between transits add path diversity.
        """
        if n_core < 1 or transit_per_core < 0 or stub_per_transit < 0:
            raise TopologyError("hierarchical: all tier sizes must be >= 0 (core >= 1)")
        rng = derive_rng(seed, "topo-hier")
        import networkx as nx

        g = nx.Graph()
        asn = 0
        cores = []
        for _ in range(n_core):
            g.add_node(asn, role=ASRole.CORE)
            cores.append(asn)
            asn += 1
        for i, a in enumerate(cores):
            for b in cores[i + 1:]:
                g.add_edge(a, b)
        transits = []
        for core in cores:
            for _ in range(transit_per_core):
                g.add_node(asn, role=ASRole.TRANSIT)
                g.add_edge(core, asn)
                transits.append(asn)
                asn += 1
        for transit in transits:
            for _ in range(stub_per_transit):
                g.add_node(asn, role=ASRole.STUB)
                g.add_edge(transit, asn)
                asn += 1
        # sprinkle a few transit-transit peering links for path diversity
        if len(transits) >= 2:
            n_peer = max(1, len(transits) // 3)
            for _ in range(n_peer):
                a, b = rng.choice(transits, size=2, replace=False)
                g.add_edge(int(a), int(b))
        return Topology(g, prefix_length=prefix_length)

    @staticmethod
    def powerlaw(n: int = 100, m: int = 2, prefix_length: int = 24,
                 seed: int | None = None) -> Topology:
        """Barabási–Albert power-law AS graph, degree-classified into tiers.

        Top 5% of nodes by degree become core, nodes of degree > m become
        transit, the rest are stubs — the standard reading of power-law AS
        maps (and the setting of the Park & Lee route-based filtering claim
        the paper leans on in Sec. 3.2).
        """
        if n < m + 1:
            raise TopologyError(f"powerlaw needs n > m (n={n}, m={m})")
        rng = derive_rng(seed, "topo-ba")
        import networkx as nx

        g = nx.barabasi_albert_graph(n, m, seed=int(rng.integers(0, 2**31)))
        degrees = dict(g.degree())
        order = sorted(degrees, key=lambda v: -degrees[v])
        n_core = max(1, n // 20)
        core_set = set(order[:n_core])
        for v in g.nodes:
            if v in core_set:
                g.nodes[v]["role"] = ASRole.CORE
            elif degrees[v] > m:
                g.nodes[v]["role"] = ASRole.TRANSIT
            else:
                g.nodes[v]["role"] = ASRole.STUB
        # ensure at least one stub exists (tiny graphs may classify all as transit)
        if not any(g.nodes[v]["role"] is ASRole.STUB for v in g.nodes):
            tail = order[-max(1, n // 4):]
            for v in tail:
                g.nodes[v]["role"] = ASRole.STUB
        return Topology(g, prefix_length=prefix_length)

    @staticmethod
    def internet_like(n: int = 200, seed: int | None = None) -> Topology:
        """networkx ``random_internet_as_graph`` with native tier labels.

        The generator labels nodes T (tier-1), M (mid-level), CP (content
        provider) and C (customer); we map T -> core, M -> transit and
        CP/C -> stub.
        """
        rng = derive_rng(seed, "topo-inet")
        import networkx as nx

        g = nx.random_internet_as_graph(n, seed=int(rng.integers(0, 2**31)))
        mapping = {"T": ASRole.CORE, "M": ASRole.TRANSIT, "CP": ASRole.STUB, "C": ASRole.STUB}
        for v in g.nodes:
            g.nodes[v]["role"] = mapping.get(g.nodes[v].get("type", "C"), ASRole.STUB)
        if not nx.is_connected(g):  # pragma: no cover - generator is connected by design
            giant = max(nx.connected_components(g), key=len)
            g = g.subgraph(giant).copy()
            g = nx.convert_node_labels_to_integers(g)
        return Topology(g)

    @staticmethod
    def line(n: int = 3) -> Topology:
        """A path of ``n`` ASes; the two endpoints are stubs."""
        if n < 1:
            raise TopologyError("line needs n >= 1")
        import networkx as nx

        g = nx.path_graph(n)
        for v in g.nodes:
            g.nodes[v]["role"] = ASRole.STUB if v in (0, n - 1) or n <= 2 else ASRole.TRANSIT
        return Topology(g)

    @staticmethod
    def star(leaves: int = 4) -> Topology:
        """A hub AS (transit) with ``leaves`` stub ASes around it."""
        if leaves < 1:
            raise TopologyError("star needs >= 1 leaf")
        import networkx as nx

        g = nx.star_graph(leaves)
        g.nodes[0]["role"] = ASRole.TRANSIT
        for v in range(1, leaves + 1):
            g.nodes[v]["role"] = ASRole.STUB
        return Topology(g)

    @staticmethod
    def tree(branching: int = 2, height: int = 3) -> Topology:
        """Balanced tree: root is core, leaves are stubs, middle is transit."""
        import networkx as nx

        g = nx.balanced_tree(branching, height)
        for v in g.nodes:
            deg = g.degree[v]
            if v == 0:
                g.nodes[v]["role"] = ASRole.CORE
            elif deg == 1:
                g.nodes[v]["role"] = ASRole.STUB
            else:
                g.nodes[v]["role"] = ASRole.TRANSIT
        return Topology(g)

    @staticmethod
    def from_graph(graph: nx.Graph, roles: Optional[dict[int, ASRole]] = None,
                   prefix_length: int = 24) -> Topology:
        """Wrap an arbitrary connected graph; unlabelled nodes become stubs."""
        g = graph.copy()
        for v in g.nodes:
            g.nodes[v]["role"] = (roles or {}).get(v, g.nodes[v].get("role", ASRole.STUB))
        return Topology(g, prefix_length=prefix_length)

    @staticmethod
    def from_as_rel2(source: Union[str, os.PathLike, Iterable[str]],
                     prefix_length: Optional[int] = None,
                     pool: str = "10.0.0.0/8") -> Topology:
        """Build a topology from CAIDA ``as-rel2`` relationship data.

        ``source`` is a path (:class:`os.PathLike`), the file *content* as
        one string, or an iterable of lines — see :func:`parse_as_rel2`.
        ASes keep their original AS numbers.  Without a ``prefix_length``
        each AS gets a /24, or past that the shortest prefix that still
        gives every AS one in ``pool`` (/25 past 65,536 ASes in 10/8).
        """
        graph = parse_as_rel2(source)
        need = Prefix.parse(pool).length + (len(graph) - 1).bit_length()
        if prefix_length is None:
            prefix_length = max(24, need)
        if not need <= prefix_length <= 32:
            fix = (f"pass prefix_length >= {need}" if need <= 32
                   else "pass a larger pool")
            raise TopologyError(f"{len(graph)} ASes do not fit in pool {pool} "
                                f"at /{prefix_length}; {fix}")
        return Topology(graph, prefix_length=prefix_length, pool=pool)

    @staticmethod
    def caida_like(n: int = 1000, seed: int | None = None,
                   prefix_length: int = 24) -> Topology:
        """A deterministic synthetic AS graph in CAIDA ``as-rel2`` shape.

        Convenience wrapper: :func:`synthesize_as_rel2` then
        :meth:`from_as_rel2`, so the synthetic path exercises exactly the
        parser the real-snapshot path uses.
        """
        return TopologyBuilder.from_as_rel2(
            synthesize_as_rel2(n, seed=seed),
            prefix_length=prefix_length)


def parse_as_rel2(source: Union[str, os.PathLike, Iterable[str]]) -> nx.Graph:
    """Parse CAIDA ``as-rel2`` (serial-2) AS relationship data into a graph.

    The format is one relationship per line — ``<a>|<b>|-1`` meaning *a is a
    provider of b*, ``<a>|<b>|0`` meaning *a and b peer* — with ``#`` comment
    lines interspersed.  ``source`` may be a filesystem path
    (:class:`os.PathLike`), the file content as a single string, or any
    iterable of lines.

    Returns an undirected :class:`networkx.Graph` whose nodes carry a
    ``role`` (:class:`ASRole`) classified from the relationship structure —
    an AS with no customers is a STUB, one with customers but no providers
    is CORE (tier-1), anything in between is TRANSIT — and whose edges carry
    ``rel`` (``"p2c"`` or ``"p2p"``) plus, for p2c edges, ``provider``.
    Disconnected snapshots are reduced to their giant component so the
    result is always a valid :class:`Topology` graph.
    """
    if isinstance(source, os.PathLike):
        with open(source, encoding="utf-8") as fh:
            lines: Iterable[str] = fh.read().splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    import networkx as nx

    g = nx.Graph()
    providers_of: dict[int, set[int]] = {}
    customers_of: dict[int, set[int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 3:
            raise TopologyError(f"as-rel2 line {lineno}: malformed {line!r}")
        try:
            a, b, rel = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise TopologyError(f"as-rel2 line {lineno}: malformed {line!r}") from exc
        if a == b:
            continue
        if rel == -1:
            g.add_edge(a, b, rel="p2c", provider=a)
            customers_of.setdefault(a, set()).add(b)
            providers_of.setdefault(b, set()).add(a)
        elif rel == 0:
            if not g.has_edge(a, b):  # p2c takes precedence over duplicate p2p
                g.add_edge(a, b, rel="p2p")
        else:
            raise TopologyError(
                f"as-rel2 line {lineno}: unknown relationship {rel} in {line!r}"
            )
    if g.number_of_nodes() == 0:
        raise TopologyError("as-rel2 source contains no relationships")
    for v in g.nodes:
        has_customers = bool(customers_of.get(v))
        has_providers = bool(providers_of.get(v))
        if not has_customers:
            role = ASRole.STUB
        elif not has_providers:
            role = ASRole.CORE
        else:
            role = ASRole.TRANSIT
        g.nodes[v]["role"] = role
    if not nx.is_connected(g):
        giant = max(nx.connected_components(g), key=len)
        g = g.subgraph(giant).copy()
    return g


#: lateral peering links per non-tier-1 AS in :func:`synthesize_as_rel2`
P2P_FRACTION = 0.12


def synthesize_as_rel2(n: int, seed: int | None = None) -> str:
    """Generate a deterministic synthetic AS graph as ``as-rel2`` text.

    Shape follows the CAIDA serial-2 snapshots the paper's scale argument
    rests on (Sec. 5.3, "roughly 18'000 autonomous systems"): a small
    tier-1 clique of mutual peers, every later AS buying transit from one
    or two existing providers chosen by preferential attachment (degree-
    proportional, via an O(n) target-list sampler), plus a sprinkle of
    lateral peering links.  ASNs are 1-based and contiguous; output is
    reproducible for a given ``(n, seed)``.
    """
    if n < 2:
        raise TopologyError(f"synthesize_as_rel2 needs n >= 2 (n={n})")
    rng = derive_rng(seed, "as-rel2-synth")
    n_tier1 = min(max(2, min(8, n // 50)), n)
    lines = [
        "# synthetic as-rel2 (CAIDA serial-2 shaped), not a real snapshot",
        f"# generator: repro.net.topology.synthesize_as_rel2(n={n}, seed={seed})",
        "# format: <provider-as>|<customer-as>|-1 | <peer-as>|<peer-as>|0",
    ]
    # tier-1 clique: mutual peers, no providers
    for i in range(1, n_tier1 + 1):
        for j in range(i + 1, n_tier1 + 1):
            lines.append(f"{i}|{j}|0")
    # preferential attachment over a target list: each p2c edge appends the
    # provider once, so sampling uniformly from `targets` is degree-biased
    targets = list(range(1, n_tier1 + 1))
    p2c: list[tuple[int, int]] = []
    for asn in range(n_tier1 + 1, n + 1):
        n_providers = 2 if rng.random() < 0.3 else 1
        chosen: set[int] = set()
        while len(chosen) < min(n_providers, asn - 1):
            chosen.add(targets[int(rng.integers(0, len(targets)))])
        for provider in sorted(chosen):
            p2c.append((provider, asn))
            targets.append(provider)
        targets.append(asn)
    lines.extend(f"{p}|{c}|-1" for p, c in p2c)
    # lateral p2p links between non-tier-1 ASes for path diversity
    n_p2p = int(P2P_FRACTION * max(0, n - n_tier1))
    seen = {tuple(sorted(e)) for e in p2c}
    for _ in range(n_p2p):
        a = int(rng.integers(n_tier1 + 1, n + 1))
        b = int(rng.integers(n_tier1 + 1, n + 1))
        if a == b or tuple(sorted((a, b))) in seen:
            continue
        seen.add(tuple(sorted((a, b))))
        lines.append(f"{min(a, b)}|{max(a, b)}|0")
    return "\n".join(lines) + "\n"

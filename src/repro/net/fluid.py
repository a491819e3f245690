"""Flow-level ("fluid") network model for AS-scale parameter sweeps.

Packet-level simulation of thousands of ASes x thousands of attack sources
is wasteful when the questions are about *where traffic is filtered* and
*how much survives* — exactly the questions behind the paper's Sec. 3.2
deployment-effectiveness argument and the Sec. 4.3 "filter close to the
source" claim.  The fluid model treats each traffic source as a constant-
rate flow, routes it on the shortest AS path, applies per-AS filter pass
fractions, and resolves link congestion by iterative proportional scaling.

:meth:`FluidNetwork.evaluate` is an array program over flow-major hop
arrays (:class:`Hops`): each filter answers once per path position for
all hops flows reach alive, and the survival products, link loads and
congestion iterations run on NumPy arrays.  A network memoises the paths
it routes, so a sweep of many evaluations routes each flow once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Protocol, Sequence

import numpy as np

from repro.errors import RoutingError, TopologyError
from repro.net.packet import Packet
from repro.net.routing import Routing
from repro.net.topology import ASRole, Topology, TopologyBuilder
from repro.util.units import Mbps

__all__ = ["Flow", "FlowSet", "FluidFilter", "FluidNetwork", "FluidResult",
           "Hops", "flood_flows"]


@dataclass(frozen=True)
class Flow:
    """A constant-rate unidirectional traffic aggregate.

    ``claimed_src_asn`` is the AS that the packets' *source address field*
    points at; it differs from ``src_asn`` when the flow is spoofed (for a
    reflector-attack request flow it is the victim's AS).
    """

    src_asn: int
    dst_asn: int
    rate: float                  # bits/second
    kind: str = "legit"          # ground-truth label for accounting
    claimed_src_asn: int = -1    # -1 => not spoofed (== src_asn)
    tag: str = ""                # free-form experiment label

    @property
    def spoofed(self) -> bool:
        return self.claimed_src_asn != -1 and self.claimed_src_asn != self.src_asn

    @property
    def source_address_asn(self) -> int:
        """AS of the address written in the source field."""
        return self.src_asn if self.claimed_src_asn == -1 else self.claimed_src_asn

    def header(self, topology: Topology) -> Packet:
        """The flow's representative packet: first addresses of the claimed
        source's and destination's prefixes, UDP to the port-80 service
        (legit) or port 53 (floods, DNS reflection); ``uid=0`` draws no id."""
        return Packet.udp(topology.prefix_of(self.source_address_asn).first,
                          topology.prefix_of(self.dst_asn).first,
                          dport=80 if self.kind == "legit" else 53, uid=0)


class FlowSet:
    """An ordered collection of flows with summary helpers."""

    def __init__(self, flows: Iterable[Flow] = ()) -> None:
        self.flows: list[Flow] = list(flows)

    def add(self, flow: Flow) -> None:
        self.flows.append(flow)

    def extend(self, flows: Iterable[Flow]) -> None:
        self.flows.extend(flows)

    def by_kind(self) -> dict[str, list[Flow]]:
        out: dict[str, list[Flow]] = {}
        for f in self.flows:
            out.setdefault(f.kind, []).append(f)
        return out

    def __iter__(self):
        return iter(self.flows)

    def __len__(self) -> int:
        return len(self.flows)


@dataclass(frozen=True)
class Hops:
    """Flow-major hop arrays of one evaluation: hop ``h`` is flow
    ``flows[flow[h]]`` at AS ``asn[h]``, ``pos[h]`` hops from its source,
    entered from AS ``prev[h]`` (-1 at the source AS)."""

    flows: Sequence[Flow]
    flow: np.ndarray
    asn: np.ndarray
    prev: np.ndarray
    pos: np.ndarray

    def visits(self, sel: np.ndarray, asns: Iterable[int]
               ) -> Iterator[tuple[int, Flow, int, Optional[int]]]:
        """``(i, flow, asn, prev)`` for each hop ``sel[i]`` at one of
        ``asns``; ``prev`` is None at the flow's source AS."""
        at = np.flatnonzero(np.isin(self.asn[sel],
                                    np.fromiter(asns, dtype=np.int64)))
        picked = sel[at]
        for i, f, asn, prev in zip(at.tolist(), self.flow[picked].tolist(),
                                   self.asn[picked].tolist(),
                                   self.prev[picked].tolist()):
            yield i, self.flows[f], asn, None if prev < 0 else prev


class FluidFilter(Protocol):
    """Per-AS pass fractions for flows traversing the fluid network.

    ``sel`` picks hops of ``hops`` that flows reach alive, all at one path
    position; return, per picked hop, the fraction in [0, 1] of the flow
    that hop's AS lets through.
    """

    def pass_fractions(self, hops: Hops, sel: np.ndarray) -> np.ndarray:
        ...  # pragma: no cover


@dataclass
class FluidResult:
    """Outcome of one fluid evaluation."""

    delivered: np.ndarray                  # bits/s per flow after filters+congestion
    filtered: np.ndarray                   # bits/s per flow removed by filters
    congestion_lost: np.ndarray            # bits/s per flow lost to overload
    link_load: dict[tuple[int, int], float]
    byte_hops: dict[str, float]            # kind -> (bits/s x hops) transported
    drop_distance: dict[str, float]        # kind -> mean hops travelled by filtered traffic
    flows: list[Flow] = field(default_factory=list)

    def delivered_rate(self, kind: Optional[str] = None, dst_asn: Optional[int] = None) -> float:
        """Total delivered bits/s, optionally restricted by kind and destination."""
        total = 0.0
        for i, f in enumerate(self.flows):
            if kind is not None and f.kind != kind:
                continue
            if dst_asn is not None and f.dst_asn != dst_asn:
                continue
            total += float(self.delivered[i])
        return total

    def sent_rate(self, kind: Optional[str] = None) -> float:
        return sum(f.rate for f in self.flows if kind is None or f.kind == kind)

    def survival_fraction(self, kind: str) -> float:
        """Delivered / sent for a ground-truth kind (0 when none sent)."""
        sent = self.sent_rate(kind)
        return self.delivered_rate(kind) / sent if sent > 0 else 0.0


def flood_flows(topology: Topology, victim: int, n_sources: int,
                rate_each: float, rng: np.random.Generator) -> FlowSet:
    """A flooding-attack flow set: ``n_sources`` distinct stub ASes (victim
    excluded) each pushing ``rate_each`` bits/s at ``victim``.

    Sampling is deterministic given ``rng``; used by the CAIDA-scale E6
    tables where per-packet agent modelling would dominate runtime.
    """
    candidates = [a for a in topology.stub_ases if a != victim]
    if len(candidates) < n_sources:
        raise TopologyError(
            f"need {n_sources} stub sources but only {len(candidates)} available"
        )
    picked = rng.choice(len(candidates), size=n_sources, replace=False)
    return FlowSet(
        Flow(src_asn=candidates[i], dst_asn=victim, rate=rate_each, kind="attack")
        for i in sorted(picked)
    )


class FluidNetwork:
    """Fluid traffic evaluation on an AS topology.

    Routing is a lazy :class:`~repro.net.routing.Routing`, the one the
    packet network uses: one BFS per *destination or claimed-source* AS
    actually referenced — so sweeps over thousands of ASes stay fast.
    Each path evaluated is routed once and kept for the network's life.
    """

    def __init__(self, topology: Topology,
                 path_fn: Optional[Callable[[int, int], list[int]]] = None) -> None:
        self.topology = topology
        self.routing = Routing(topology.graph)
        #: optional routing override (e.g. PolicyRouting(topo).path for
        #: valley-free paths); None = shortest-path routing
        self.path_fn = path_fn
        self._paths: dict[tuple[int, int], list[int]] = {}

    @classmethod
    def from_as_rel2(cls, source, prefix_length: Optional[int] = None
                     ) -> "FluidNetwork":
        """Fluid network over a CAIDA ``as-rel2`` snapshot (or synthetic
        text in that shape) — the scalability path for E6: tens of
        thousands of ASes are tractable here where packet simulation is
        not."""
        return cls(TopologyBuilder.from_as_rel2(source, prefix_length=prefix_length))

    def capacity(self, a: int, b: int) -> float:
        """Capacity of link a->b in bits/s, by tier pairing."""
        roles = {self.topology.role_of(a), self.topology.role_of(b)}
        if roles == {ASRole.CORE}:
            return Mbps(10_000)
        if ASRole.STUB in roles:
            return Mbps(1_000)
        return Mbps(4_000)

    # ---------------------------------------------------------------- routing
    def path(self, src_asn: int, dst_asn: int) -> list[int]:
        """AS path ``[src, ..., dst]``: shortest-path by default, or the
        injected ``path_fn``'s choice (deterministic either way)."""
        if self.path_fn is not None:
            return list(self.path_fn(src_asn, dst_asn))
        return self.routing.path(src_asn, dst_asn)

    def _route(self, src_asn: int, dst_asn: int) -> list[int]:
        """:meth:`path`, memoised (an empty list remembers "no route");
        callers must not mutate the list."""
        path = self._paths.get((src_asn, dst_asn))
        if path is None:
            try:
                path = self.path(src_asn, dst_asn)
            except RoutingError:
                path = []
            self._paths[src_asn, dst_asn] = path
        if not path:
            raise RoutingError(f"AS {src_asn}: no route to AS {dst_asn}")
        return path

    def distance(self, a: int, b: int) -> int:
        """Hop distance between two ASes."""
        return self.routing.distance(a, b)

    def expected_ingress(self, at_asn: int, claimed_src_asn: int) -> frozenset[int]:
        """Neighbours of ``at_asn`` on a route from ``claimed_src_asn``,
        used by route-based filtering.  Unknown claimed sources yield the
        empty set (no interface is legitimate for a bogus address).
        """
        if self.path_fn is None:
            return self.routing.expected_ingress(at_asn, claimed_src_asn)
        if claimed_src_asn not in self.routing:
            return frozenset()
        # under single-path policy routing the only legitimate ingress
        # is the penultimate hop of the policy path from the claimed
        # source (no route -> no legitimate interface at all)
        try:
            path = self._route(claimed_src_asn, at_asn)
        except RoutingError:
            return frozenset()
        return frozenset({path[-2]}) if len(path) >= 2 else frozenset()

    # ------------------------------------------------------------- evaluation
    def evaluate(self, flows: FlowSet | Iterable[Flow],
                 filters: Sequence[FluidFilter] = (),
                 congestion: bool = True,
                 congestion_iters: int = 6) -> FluidResult:
        """Route all flows, apply filters, optionally resolve congestion.

        The filter pass walks path positions over flow-major hop arrays:
        at each position every filter answers once for the hops that
        flows still reach alive.  Sums keep the flow-major order of a
        per-flow walk, so results are bit-for-bit those of one.
        Congestion resolution runs over the hop-expanded link incidence.
        """
        flow_list = list(flows)
        n = len(flow_list)
        rates = np.array([f.rate for f in flow_list], dtype=np.float64)
        paths = [self._route(f.src_asn, f.dst_asn) for f in flow_list]
        lengths = np.array([len(p) for p in paths], dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        asn = np.fromiter(chain.from_iterable(paths), dtype=np.int64,
                          count=int(lengths.sum()))
        flow_of = np.repeat(np.arange(n), lengths)
        pos = np.arange(asn.size) - np.repeat(starts, lengths)
        hops = Hops(flow_list, flow_of, asn, np.where(pos > 0, np.roll(asn, 1), -1), pos)

        # --- filter pass: surviving fraction leaving each hop (0 once dead)
        # and the fraction each filter drops there
        frac = np.ones(n, dtype=np.float64)
        at_hop = np.zeros(asn.size, dtype=np.float64)
        dropped = np.zeros((asn.size, len(filters)), dtype=np.float64)
        alive = np.arange(n)
        for k in range(int(lengths.max()) if n else 0):
            alive = alive[lengths[alive] > k]
            if not alive.size:
                break
            sel = starts[alive] + k
            f = frac[alive]
            for j, filt in enumerate(filters):
                p = np.asarray(filt.pass_fractions(hops, sel), dtype=np.float64)
                p = np.where(p < 1.0, np.clip(p, 0.0, 1.0), 1.0)
                dropped[sel, j] = f * (1.0 - p)
                f = f * p
            f[f <= 0.0] = 0.0
            frac[alive] = at_hop[sel] = f
            alive = alive[f > 0.0]

        kinds = list(dict.fromkeys(f.kind for f in flow_list))
        kind_of = np.array([kinds.index(f.kind) for f in flow_list], dtype=np.int64)
        # hop-expanded incidence: every link a flow leaves a hop on alive
        inc = np.flatnonzero((at_hop > 0.0) & (pos < lengths[flow_of] - 1))
        inc_flow_arr = flow_of[inc]
        carried = rates[inc_flow_arr] * at_hop[inc]
        byte_hops = dict.fromkeys(kinds, 0.0)
        for code, total in _kind_sums(carried, kind_of[inc_flow_arr]).items():
            byte_hops[kinds[code]] = total
        # drops in (hop, filter) order, as a per-flow walk meets them
        hop_ix = np.nonzero(dropped > 0)[0]
        lost = rates[flow_of[hop_ix]] * dropped[dropped > 0]
        lost_kind = kind_of[flow_of[hop_ix]]
        weighted = _kind_sums(lost * pos[hop_ix], lost_kind)
        drop_distance = {kinds[code]: weighted[code] / total for code, total
                         in _kind_sums(lost, lost_kind).items() if total > 0}

        after_filter = rates * frac

        # --- congestion pass: proportional scaling on overloaded links
        scale = np.ones(n, dtype=np.float64)
        link_load: dict[tuple[int, int], float] = {}
        if inc.size:
            # links as (rank of a, rank of b) codes: sorted codes are sorted links
            nodes, rank = np.unique(asn, return_inverse=True)
            codes, inc_link_arr = np.unique(
                rank[inc] * nodes.size + rank[inc + 1], return_inverse=True)
            links = list(zip(nodes[codes // nodes.size].tolist(),
                             nodes[codes % nodes.size].tolist()))
            caps = np.array([self.capacity(a, b) for a, b in links]
                            if congestion else [], dtype=np.float64)
            iters = congestion_iters if congestion else 1
            loads = np.zeros(len(links), dtype=np.float64)
            for it in range(iters):
                contrib = carried * scale[inc_flow_arr]
                loads = np.zeros(len(links), dtype=np.float64)
                np.add.at(loads, inc_link_arr, contrib)
                if not congestion:
                    break
                over = loads > caps
                if not over.any():
                    break
                link_factor = np.where(over, caps / np.maximum(loads, 1e-30), 1.0)
                # each flow is scaled by the most congested link it crosses
                flow_factor = np.ones(n, dtype=np.float64)
                np.minimum.at(flow_factor, inc_flow_arr, link_factor[inc_link_arr])
                scale *= flow_factor
            link_load = dict(zip(links, loads.tolist()))

        delivered = after_filter * scale
        return FluidResult(
            delivered=delivered,
            filtered=rates - after_filter,
            congestion_lost=after_filter - delivered,
            link_load=link_load,
            byte_hops=byte_hops,
            drop_distance=drop_distance,
            flows=flow_list,
        )


def _kind_sums(values: np.ndarray, codes: np.ndarray) -> dict[int, float]:
    """Per code, in order of first appearance, the left-to-right float sum
    of its ``values`` that a running ``+=`` gives."""
    return {code: float(np.cumsum(values[codes == code])[-1])
            for code in dict.fromkeys(codes.tolist())}

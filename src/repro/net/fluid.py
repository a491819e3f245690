"""Flow-level ("fluid") network model for AS-scale parameter sweeps.

Packet-level simulation of thousands of ASes x thousands of attack sources
is wasteful when the questions are about *where traffic is filtered* and
*how much survives* — exactly the questions behind the paper's Sec. 3.2
deployment-effectiveness argument and the Sec. 4.3 "filter close to the
source" claim.  The fluid model treats each traffic source as a constant-
rate flow, routes it on the shortest AS path, applies per-AS filter pass
fractions, and resolves link congestion by iterative proportional scaling.

Numerically heavy parts (survival products, link load accumulation,
congestion iterations) run on NumPy arrays over a hop-expanded flow table,
following the vectorise-the-inner-loop guidance of the HPC coding guides.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol, Sequence

import numpy as np

from repro.errors import RoutingError, TopologyError
from repro.net.packet import Packet
from repro.net.routing import Routing
from repro.net.topology import ASRole, Topology, TopologyBuilder
from repro.util.units import Mbps

__all__ = ["Flow", "FlowSet", "FluidFilter", "FluidNetwork", "FluidResult",
           "flood_flows"]


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

    def total_rate(self, kind: Optional[str] = None) -> float:
        return sum(f.rate for f in self.flows if kind is None or f.kind == kind)

    def by_kind(self) -> dict[str, list[Flow]]:
        out: dict[str, list[Flow]] = {}
        for f in self.flows:
            out.setdefault(f.kind, []).append(f)
        return out

    def __iter__(self):
        return iter(self.flows)

    def __len__(self) -> int:
        return len(self.flows)


class FluidFilter(Protocol):
    """Per-AS pass fraction for a flow traversing the fluid network.

    ``pos`` is the index of ``asn`` on ``path`` (0 = source AS); ``prev_asn``
    is the upstream neighbour the flow arrived from (None at the source).
    Return the fraction in [0, 1] of the flow the AS lets through.
    """

    def pass_fraction(self, flow: Flow, asn: int, prev_asn: Optional[int],
                      pos: int, path: Sequence[int]) -> float:
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
                rate_each: float, rng: np.random.Generator,
                kind: str = "attack") -> FlowSet:
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
        Flow(src_asn=candidates[i], dst_asn=victim, rate=rate_each, kind=kind)
        for i in sorted(picked)
    )


class FluidNetwork:
    """Fluid traffic evaluation on an AS topology.

    Routing is a lazy :class:`~repro.net.routing.Routing`, the one the
    packet network uses: one BFS per *destination or claimed-source* AS
    actually referenced — so sweeps over thousands of ASes stay fast.
    """

    def __init__(self, topology: Topology,
                 capacity_fn: Optional[Callable[[int, int], float]] = None,
                 path_fn: Optional[Callable[[int, int], list[int]]] = None) -> None:
        self.topology = topology
        self.routing = Routing(topology.graph)
        self.capacity_fn = capacity_fn or self._default_capacity
        #: optional routing override (e.g. PolicyRouting(topo).path for
        #: valley-free paths); None = shortest-path routing
        self.path_fn = path_fn

    @classmethod
    def from_as_rel2(cls, source, prefix_length: int = 24,
                     capacity_fn: Optional[Callable[[int, int], float]] = None,
                     path_fn: Optional[Callable[[int, int], list[int]]] = None
                     ) -> "FluidNetwork":
        """Fluid network over a CAIDA ``as-rel2`` snapshot (or synthetic
        text in that shape) — the scalability path for E6: tens of
        thousands of ASes are tractable here where packet simulation is
        not."""
        topo = TopologyBuilder.from_as_rel2(source, prefix_length=prefix_length)
        return cls(topo, capacity_fn=capacity_fn, path_fn=path_fn)

    def _default_capacity(self, a: int, b: int) -> float:
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
            path = self.path(claimed_src_asn, at_asn)
        except RoutingError:
            return frozenset()
        return frozenset({path[-2]}) if len(path) >= 2 else frozenset()

    # ------------------------------------------------------------- evaluation
    def evaluate(self, flows: FlowSet | Iterable[Flow],
                 filters: Sequence[FluidFilter] = (),
                 congestion: bool = True,
                 congestion_iters: int = 6) -> FluidResult:
        """Route all flows, apply filters, optionally resolve congestion.

        Filters are evaluated per (flow, hop) in Python — flow counts are
        modest — while congestion resolution runs vectorised over the
        hop-expanded link incidence arrays.
        """
        flow_list = list(flows)
        n = len(flow_list)
        rates = np.array([f.rate for f in flow_list], dtype=np.float64)
        paths: list[list[int]] = [self.path(f.src_asn, f.dst_asn) for f in flow_list]

        # --- filter pass: survival fraction per flow + byte-hop accounting
        survival = np.ones(n, dtype=np.float64)
        byte_hops: dict[str, float] = {f.kind: 0.0 for f in flow_list}
        filtered_hops_weighted: defaultdict[str, float] = defaultdict(float)  # rate*hops
        filtered_total: defaultdict[str, float] = defaultdict(float)
        # hop-expanded incidence: flow index + link key per traversed link
        inc_flow: list[int] = []
        inc_link: list[tuple[int, int]] = []
        inc_scale: list[float] = []  # surviving fraction entering that link

        for i, (flow, path) in enumerate(zip(flow_list, paths)):
            frac = 1.0
            for pos, asn in enumerate(path):
                prev_asn = path[pos - 1] if pos > 0 else None
                for filt in filters:
                    p = filt.pass_fraction(flow, asn, prev_asn, pos, path)
                    if p < 1.0:
                        p = min(max(p, 0.0), 1.0)
                        dropped = frac * (1.0 - p)
                        if dropped > 0:
                            filtered_hops_weighted[flow.kind] += flow.rate * dropped * pos
                            filtered_total[flow.kind] += flow.rate * dropped
                        frac *= p
                if frac <= 0.0:
                    frac = 0.0
                    break
                if pos < len(path) - 1:
                    inc_flow.append(i)
                    inc_link.append((asn, path[pos + 1]))
                    inc_scale.append(frac)
                    byte_hops[flow.kind] += flow.rate * frac
            survival[i] = frac

        after_filter = rates * survival

        # --- congestion pass: proportional scaling on overloaded links
        scale = np.ones(n, dtype=np.float64)
        link_load: dict[tuple[int, int], float] = {}
        if inc_flow:
            inc_flow_arr = np.array(inc_flow, dtype=np.int64)
            inc_scale_arr = np.array(inc_scale, dtype=np.float64)
            unique_links = sorted(set(inc_link))
            link_index = {lk: j for j, lk in enumerate(unique_links)}
            inc_link_arr = np.array([link_index[lk] for lk in inc_link], dtype=np.int64)
            caps = np.array([self.capacity_fn(a, b) for a, b in unique_links], dtype=np.float64)
            iters = congestion_iters if congestion else 1
            loads = np.zeros(len(unique_links), dtype=np.float64)
            for it in range(iters):
                contrib = rates[inc_flow_arr] * inc_scale_arr * scale[inc_flow_arr]
                loads = np.zeros(len(unique_links), dtype=np.float64)
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
            link_load = {lk: float(loads[j]) for lk, j in link_index.items()}

        delivered = after_filter * scale
        congestion_lost = after_filter - delivered
        filtered_rate = rates - after_filter

        drop_distance = {
            kind: (filtered_hops_weighted[kind] / filtered_total[kind])
            for kind in filtered_total if filtered_total[kind] > 0
        }
        return FluidResult(
            delivered=delivered,
            filtered=filtered_rate,
            congestion_lost=congestion_lost,
            link_load=link_load,
            byte_hops=dict(byte_hops),
            drop_distance=drop_distance,
            flows=flow_list,
        )

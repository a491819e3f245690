"""Proactive source-address filtering baselines.

* :class:`IngressFiltering` — RFC 2267 [7]: a deploying AS drops packets
  *entering the network from its own customers* whose source address does
  not belong to the AS.  "rejects packets with a spoofed source address at
  the ingress of a network" (Sec. 3.2).  Effective exactly where the paper
  says: on paths between agents and reflectors, only if the *agent's* ISP
  deploys it.

* :class:`RouteBasedFiltering` — Park & Lee [15]: a deploying AS anywhere
  on the path checks whether the packet arrived on an interface consistent
  with shortest-path routing from its claimed source; inconsistent packets
  are dropped.  This is the scheme for which ~20% AS coverage already
  blocks most spoofed traffic — reproduced in experiment E3.

Each scheme is one admission function over ``(claimed source AS, this AS,
ingress neighbour or None for the AS's own hosts, routing)`` that the
router filter and the fluid filter both call.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

import numpy as np

from repro.mitigation.base import Mitigation
from repro.net.fluid import FluidFilter, FluidNetwork, Hops
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Host, Router
from repro.net.packet import Packet
from repro.net.routing import Routing

__all__ = ["IngressFiltering", "RouteBasedFiltering", "ingress_admits", "rbf_admits"]

AnyRouting = Union[Routing, FluidNetwork]


def ingress_admits(claimed: Optional[int], asn: int, ingress: Optional[int],
                   routing: AnyRouting) -> bool:
    """RFC 2267 at ``asn``: the AS's own hosts must use its addresses;
    transit passes untouched."""
    return ingress is not None or claimed == asn


def rbf_admits(claimed: Optional[int], asn: int, ingress: Optional[int],
               routing: AnyRouting) -> bool:
    """Park & Lee at ``asn``: the ingress check for the AS's own hosts;
    from a neighbour, only where ``routing`` brings traffic from the
    claimed source AS (none for a bogus source or ``asn``'s own)."""
    if ingress is None:
        return claimed == asn
    return claimed is not None and ingress in routing.expected_ingress(asn, claimed)


class _SourceFilter(Mitigation):
    """One admission function's deployment; ``dropped`` counts packet drops."""

    def __init__(self, admits: Callable[[Optional[int], int, Optional[int],
                                         AnyRouting], bool]) -> None:
        super().__init__()
        self.admits = admits
        self.dropped = 0

    def fluid_filter(self, fluid_net: FluidNetwork) -> FluidFilter:
        """The fluid form of :meth:`deploy`, routed as ``fluid_net`` routes."""
        return _FluidFilter(self, fluid_net)


class _FluidFilter:
    """Passes a flow whole or not at all, as its packets would fare."""

    def __init__(self, scheme: _SourceFilter, routing: FluidNetwork) -> None:
        self.scheme, self.routing = scheme, routing

    def pass_fractions(self, hops: Hops, sel: np.ndarray) -> np.ndarray:
        out = np.ones(sel.size)
        # prev is None at the flow's source AS: its own hosts sent it
        for i, flow, asn, prev in hops.visits(sel, self.scheme.deployed_asns):
            if not self.scheme.admits(flow.source_address_asn, asn, prev,
                                      self.routing):
                out[i] = 0.0
        return out


class IngressFiltering(_SourceFilter):
    """RFC 2267 ingress filtering at the customer edge."""

    name = "ingress"

    def __init__(self) -> None:
        super().__init__(ingress_admits)

    def deploy(self, network: Network, asns: Iterable[int]) -> None:
        as_of = network.topology.as_of
        for asn in asns:
            def filt(packet: Packet, router: Router, link: Optional[Link],
                     now: float, asn: int = asn) -> bool:
                # only packets from a directly attached host ("customer") count
                if (link is None or not isinstance(link.src, Host)
                        or ingress_admits(as_of(packet.src), asn, None,
                                          network.routing)):
                    return True
                self.dropped += 1
                return False

            network.routers[asn].add_filter(self.name, filt)
            self.deployed_asns.add(asn)


class RouteBasedFiltering(_SourceFilter):
    """Park & Lee route-based distributed packet filtering."""

    name = "rbf"

    def __init__(self) -> None:
        super().__init__(rbf_admits)

    def deploy(self, network: Network, asns: Iterable[int]) -> None:
        as_of = network.topology.as_of
        for asn in asns:
            def filt(packet: Packet, router: Router, link: Optional[Link],
                     now: float, asn: int = asn) -> bool:
                # network.routing is read per packet: fail_link replaces it
                if rbf_admits(as_of(packet.src), asn, router._ingress_asn(link),
                              network.routing):
                    return True
                self.dropped += 1
                return False

            network.routers[asn].add_filter(self.name, filt)
            self.deployed_asns.add(asn)

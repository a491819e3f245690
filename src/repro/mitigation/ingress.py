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
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.mitigation.base import Mitigation
from repro.net.fluid import Flow, FluidFilter, FluidNetwork
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Host, Router
from repro.net.packet import Packet

__all__ = ["IngressFiltering", "RouteBasedFiltering"]


class IngressFiltering(Mitigation):
    """RFC 2267 ingress filtering at the customer edge."""

    name = "ingress"

    def __init__(self) -> None:
        super().__init__()
        self.dropped = 0

    def deploy(self, network: Network, asns: Iterable[int]) -> None:
        for asn in asns:
            router = network.routers[asn]
            prefix = network.topology.prefix_of(asn)

            def filt(packet: Packet, router: Router, link: Optional[Link],
                     now: float, prefix=prefix) -> bool:
                # Only traffic entering from a directly attached host (the
                # "customer" side in the one-router-per-AS model) is checked;
                # transit traffic passes untouched — RFC 2267 semantics.
                if link is not None and isinstance(link.src, Host):
                    if not prefix.contains(packet.src):
                        self.dropped += 1
                        return False
                return True

            router.add_filter(self.name, filt)
            self.deployed_asns.add(asn)

    def fluid_filter(self) -> FluidFilter:
        mitigation = self

        class _Fluid:
            def pass_fraction(self, flow: Flow, asn: int, prev_asn, pos: int,
                              path: Sequence[int]) -> float:
                # at the source AS only: spoofed flows are caught at ingress
                if pos == 0 and asn in mitigation.deployed_asns and flow.spoofed:
                    return 0.0
                return 1.0

        return _Fluid()


class RouteBasedFiltering(Mitigation):
    """Park & Lee route-based distributed packet filtering."""

    name = "rbf"

    def __init__(self) -> None:
        super().__init__()
        self.dropped = 0

    def deploy(self, network: Network, asns: Iterable[int]) -> None:
        for asn in asns:
            router = network.routers[asn]
            prefix = network.topology.prefix_of(asn)

            def filt(packet: Packet, router: Router, link: Optional[Link],
                     now: float, prefix=prefix, asn=asn) -> bool:
                src_asn = network.topology.as_of(packet.src)
                if src_asn is None:
                    self.dropped += 1
                    return False  # bogon source
                if link is not None and isinstance(link.src, Host):
                    # locally injected: source must be local (ingress check)
                    if not prefix.contains(packet.src):
                        self.dropped += 1
                        return False
                    return True
                if src_asn == asn:
                    # claims to be our own address but arrived from outside
                    if link is not None:
                        self.dropped += 1
                        return False
                    return True
                ingress = router._ingress_asn(link)
                if ingress is None:
                    return True
                # read at run time: fail_link/restore_link replace routing
                if ingress not in network.routing.expected_ingress(asn, src_asn):
                    self.dropped += 1
                    return False
                return True

            router.add_filter(self.name, filt)
            self.deployed_asns.add(asn)

    def fluid_filter(self, fluid_net: FluidNetwork) -> FluidFilter:
        """Fluid filter on ``fluid_net``, whose routing gives the expected
        ingress."""
        mitigation = self

        class _Fluid:
            def pass_fraction(self, flow: Flow, asn: int, prev_asn, pos: int,
                              path: Sequence[int]) -> float:
                if asn not in mitigation.deployed_asns or not flow.spoofed:
                    return 1.0
                claimed = flow.source_address_asn
                if pos == 0:
                    # locally injected with a foreign source: ingress check
                    return 0.0 if claimed != asn else 1.0
                expected = fluid_net.expected_ingress(asn, claimed)
                return 1.0 if prev_asn in expected else 0.0

        return _Fluid()

"""Worldwide anti-spoofing deployment — the Sec. 4.3 headline application.

"For stopping a DDoS reflector attack to a specific web site, the owner of
that web site's IP address can, by using our proposed traffic control
system, almost instantly deploy worldwide ingress filtering rules.  These
rules will block all traffic that enters the Internet from customers of a
peripheral ISP and that carries this web site's spoofed IP address."

:class:`AntiSpoofApp` wraps the service facade; :class:`TcsAntiSpoofMitigation`
adapts it to the common :class:`~repro.mitigation.base.Mitigation`
interface so E2 can compare it head-to-head with the baselines, and
provides the fluid-model filter for the E4 deployment sweeps.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.components import SourceAntiSpoof
from repro.core.compose import RuleSpec, deploy_rules
from repro.core.device import DeviceContext
from repro.core.deployment import DeploymentScope
from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser
from repro.core.service import TrafficControlService
from repro.mitigation.base import Mitigation
from repro.net.addressing import Prefix
from repro.net.fluid import Flow
from repro.net.network import Network
from repro.net.topology import ASRole

__all__ = ["AntiSpoofApp", "TcsAntiSpoofMitigation"]


class AntiSpoofApp:
    """Deploy (and manage) anti-spoofing for the service user's prefixes."""

    def __init__(self, service: TrafficControlService) -> None:
        self.service = service

    def graph_factory(self, device_ctx: DeviceContext) -> ComponentGraph:
        """One SourceAntiSpoof component protecting the user's prefixes."""
        graph = ComponentGraph(f"antispoof:{self.service.user.user_id}")
        graph.add(SourceAntiSpoof("anti-spoof", self.service.user.prefixes))
        return graph

    def deploy(self, scope: Optional[DeploymentScope] = None) -> dict[str, list[int]]:
        """Push the rules worldwide — by default to all stub borders, where
        traffic 'enters the Internet'."""
        scope = scope or DeploymentScope.stub_borders()
        # spoofed *sources* are filtered in the source-owner stage: the
        # spoofed address belongs to the user, so the user's stage runs.
        return self.service.deploy(scope, src_graph_factory=self.graph_factory)

    def components(self) -> Iterable[SourceAntiSpoof]:
        """All deployed anti-spoof components (for drop accounting)."""
        for nms in self.service.tcsp.nmses:
            for device in nms.devices.values():
                instance = device.services.get(self.service.user.user_id)
                if instance and instance.src_graph:
                    for comp in instance.src_graph.components():
                        if isinstance(comp, SourceAntiSpoof):
                            yield comp

    def dropped(self) -> int:
        return sum(c.dropped for c in self.components())


class TcsAntiSpoofMitigation(Mitigation):
    """Mitigation-interface adapter for the E2/E4 comparisons.

    Packet-level deployment runs the owner's source-stage rule on the TCS
    decision path at each stub border; the fluid filter reproduces the
    same semantics analytically: a spoofed flow claiming a protected
    prefix dies at its *source AS* whenever that stub AS hosts an adaptive
    device with the rule.
    """

    name = "tcs-antispoof"

    def __init__(self, protected_prefixes: Sequence[Prefix],
                 protected_asns: Sequence[int]) -> None:
        super().__init__()
        self.protected_prefixes = list(protected_prefixes)
        self.protected_asns = set(protected_asns)

    def deploy(self, network: Network, asns: Iterable[int]) -> None:
        """Standalone deployment (without the TCSP plumbing): the owner's
        source-stage ``anti-spoof`` rule as router filter ``tcs-antispoof``
        at the given stub ASes."""
        stubs = [asn for asn in asns
                 if network.topology.role_of(asn) is ASRole.STUB]
        owner = NetworkUser(self.name, "protected prefixes",
                            self.protected_prefixes)
        rule = RuleSpec(action="anti-spoof",
                        prefixes=tuple(str(p) for p in self.protected_prefixes))
        deploy_rules(network, stubs, owner, self.name, src_rules=(rule,))
        self.deployed_asns.update(stubs)

    def fluid_filter(self):
        mitigation = self

        class _Fluid:
            def pass_fraction(self, flow: Flow, asn: int, prev_asn, pos: int,
                              path) -> float:
                if (pos == 0 and asn in mitigation.deployed_asns
                        and flow.spoofed
                        and flow.source_address_asn in mitigation.protected_asns
                        and flow.src_asn not in mitigation.protected_asns):
                    return 0.0
                return 1.0

        return _Fluid()

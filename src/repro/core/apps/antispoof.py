"""Worldwide anti-spoofing deployment — the Sec. 4.3 headline application.

"For stopping a DDoS reflector attack to a specific web site, the owner of
that web site's IP address can, by using our proposed traffic control
system, almost instantly deploy worldwide ingress filtering rules.  These
rules will block all traffic that enters the Internet from customers of a
peripheral ISP and that carries this web site's spoofed IP address."

:class:`AntiSpoofApp` wraps the service facade; :class:`TcsAntiSpoofMitigation`
adapts it to the common :class:`~repro.mitigation.base.Mitigation`
interface so E2 can compare it head-to-head with the baselines, and runs
the same rule as the fluid filter of the E4/E12 deployment sweeps.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.apps.firewall import DistributedFirewallApp
from repro.core.compose import RuleFilter, RuleSpec, deploy_rules
from repro.core.deployment import DeploymentScope
from repro.core.ownership import NetworkUser
from repro.core.service import TrafficControlService
from repro.mitigation.base import Mitigation
from repro.net.addressing import Prefix
from repro.net.network import Network
from repro.net.topology import ASRole, Topology

__all__ = ["AntiSpoofApp", "TcsAntiSpoofMitigation", "anti_spoof_rule"]


def anti_spoof_rule(prefixes: Iterable[Prefix]) -> RuleSpec:
    """The owner's source-stage rule protecting ``prefixes``."""
    return RuleSpec(action="anti-spoof", prefixes=tuple(str(p) for p in prefixes))


class AntiSpoofApp(DistributedFirewallApp):
    """Deploy (and manage) anti-spoofing for the service user's prefixes:
    the anti-spoof rule, compiled per device in the source-owner stage."""

    kind = "antispoof"

    def __init__(self, service: TrafficControlService) -> None:
        super().__init__(service, [anti_spoof_rule(service.user.prefixes)])

    def deploy(self, scope: Optional[DeploymentScope] = None) -> dict[str, list[int]]:
        """Push the rules worldwide — by default to all stub borders, where
        traffic 'enters the Internet'."""
        scope = scope or DeploymentScope.stub_borders()
        # spoofed *sources* are filtered in the source-owner stage: the
        # spoofed address belongs to the user, so the user's stage runs.
        return self.service.deploy(scope, src_graph_factory=self.graph_factory)


class TcsAntiSpoofMitigation(Mitigation):
    """Mitigation-interface adapter for the E2/E4 comparisons.

    Both engines run one rule set: the owner's source-stage
    ``anti-spoof`` rule on the TCS decision path at each stub border,
    as router filter ``tcs-antispoof`` (:meth:`deploy`) or as the
    equivalent fluid filter (:meth:`fluid_filter`).
    """

    name = "tcs-antispoof"

    def __init__(self, protected_prefixes: Sequence[Prefix]) -> None:
        super().__init__()
        self.protected_prefixes = list(protected_prefixes)

    def rule_set(self, topology: Topology, asns: Iterable[int]) -> tuple:
        """``(stub asns, owner, name, src_rules, dst_rules)``: the arguments
        :func:`~repro.core.compose.deploy_rules` and
        :class:`~repro.core.compose.RuleFilter` share."""
        stubs = [asn for asn in asns if topology.role_of(asn) is ASRole.STUB]
        owner = NetworkUser(self.name, "protected prefixes",
                            self.protected_prefixes)
        return (stubs, owner, self.name,
                (anti_spoof_rule(self.protected_prefixes),), ())

    def deploy(self, network: Network, asns: Iterable[int]) -> None:
        """Standalone deployment (without the TCSP plumbing) at the given
        ASes' stub borders."""
        stubs, owner, name, src, dst = self.rule_set(network.topology, asns)
        deploy_rules(network, stubs, owner, name, src_rules=src, dst_rules=dst)
        self.deployed_asns.update(stubs)

    def fluid_filter(self, topology: Topology, asns: Iterable[int]) -> RuleFilter:
        """The fluid form of :meth:`deploy`."""
        stubs, owner, name, src, dst = self.rule_set(topology, asns)
        return RuleFilter(topology, stubs, owner, name, src_rules=src,
                          dst_rules=dst)

"""Distributed firewall on the traffic control service.

Sec. 4.3: "Attacks based on protocol misuse like e.g. sending ICMP
unreachable or TCP reset messages to tear down TCP connections can also be
filtered out.  Without such a distributed traffic control service,
worldwide filtering of illegitimate packets is almost impossible due to
the many network operators involved."

The firewall runs in the *destination-owner* stage: the owner of the
protected servers filters what may reach them, anywhere in the network —
"distributed firewall-like filtering" (Sec. 1).  Its rules are
:class:`~repro.core.compose.RuleSpec` values: one graph per device
(:func:`~repro.core.compose.compile_spec`), which that device's decision
core vets and compiles when it installs it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.compose import RuleSpec, ServiceSpec, compile_spec
from repro.core.device import DeviceContext
from repro.core.deployment import DeploymentScope
from repro.core.graph import ComponentGraph
from repro.core.service import TrafficControlService

__all__ = ["BLOCK_ICMP_UNREACH", "BLOCK_RST", "DistributedFirewallApp"]

#: drop forged TCP RSTs aimed at the owner's hosts
BLOCK_RST = RuleSpec(action="drop", proto="tcp", tcp_flags="rst",
                     label="block-rst")
#: drop ICMP host-unreachable teardown messages
BLOCK_ICMP_UNREACH = RuleSpec(action="drop", proto="icmp",
                              icmp_type="host-unreachable",
                              label="block-icmp-unreach")


class DistributedFirewallApp:
    """Deploy a rule set worldwide."""

    #: service spec (and graph) name prefix
    kind = "firewall"

    def __init__(self, service: TrafficControlService,
                 rules: Sequence[RuleSpec]) -> None:
        self.service = service
        self.spec = ServiceSpec(f"{self.kind}:{service.user.user_id}", tuple(rules))
        self.spec.validate()
        self._graphs: list[ComponentGraph] = []

    def graph_factory(self, device_ctx: DeviceContext) -> ComponentGraph:
        graph = compile_spec(self.spec, device_ctx)
        self._graphs.append(graph)
        return graph

    def deploy(self, scope: Optional[DeploymentScope] = None) -> dict[str, list[int]]:
        """Install in the destination-owner stage under the given scope."""
        scope = scope or DeploymentScope.everywhere()
        return self.service.deploy(scope, dst_graph_factory=self.graph_factory)

    def dropped(self) -> int:
        """Packets dropped by this firewall across all devices."""
        return sum(graph.packets_dropped for graph in self._graphs)

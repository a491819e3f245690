"""Network debugging and traffic statistics (paper Sec. 4.4).

"Our system provides means to collect traffic statistics within the
network.  Link delays or packet loss on intermediate links could be
measured for network debugging purposes.  As an example, such information
could help providers of content distribution services to optimize their
(overlay) network."

:class:`NetworkDebuggingApp` deploys statistics collectors along the paths
of the user's traffic and estimates per-segment one-way delay and loss
from the per-device observation records of the user's *own probe packets*
(scope confinement intact: only owned traffic is observed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.components import PASS, Component, Capabilities, ComponentContext, Verdict
from repro.core.device import DeviceContext
from repro.core.deployment import DeploymentScope
from repro.core.graph import ComponentGraph
from repro.core.service import TrafficControlService
from repro.net.packet import Packet

__all__ = ["NetworkDebuggingApp", "LinkEstimate", "ProbeObserver"]

#: observations one :class:`ProbeObserver` keeps
MAX_RECORDS = 100_000


class ProbeObserver(Component):
    """Records (packet uid, time) for the owner's packets at one device."""

    capabilities = Capabilities(extra_traffic_bps=2_000.0)

    def __init__(self, name: str = "probe-observer") -> None:
        super().__init__(name)
        self.observations: dict[int, float] = {}

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        if len(self.observations) < MAX_RECORDS:
            self.observations[packet.uid] = ctx.now
        return PASS


@dataclass
class LinkEstimate:
    """Measured characteristics of one AS-level segment."""

    from_asn: int
    to_asn: int
    mean_delay: float
    loss_fraction: float
    samples: int


class NetworkDebuggingApp:
    """Per-segment delay/loss estimation from in-network observations."""

    def __init__(self, service: TrafficControlService) -> None:
        self.service = service
        self.observers: dict[int, ProbeObserver] = {}

    def graph_factory(self, device_ctx: DeviceContext) -> ComponentGraph:
        observer = ProbeObserver()
        self.observers[device_ctx.asn] = observer
        graph = ComponentGraph(f"netdebug:{self.service.user.user_id}")
        graph.add(observer)
        return graph

    def deploy(self, scope: Optional[DeploymentScope] = None) -> dict[str, list[int]]:
        scope = scope or DeploymentScope.everywhere()
        # observe both directions of owned traffic
        return self.service.deploy(
            scope,
            src_graph_factory=self.graph_factory_shared,
            dst_graph_factory=self.graph_factory_shared,
        )

    def graph_factory_shared(self, device_ctx: DeviceContext) -> ComponentGraph:
        """Reuse one observer per device across both stages."""
        if device_ctx.asn in self.observers:
            observer = self.observers[device_ctx.asn]
            graph = ComponentGraph(f"netdebug:{self.service.user.user_id}:2")
            graph.add(observer)
            return graph
        return self.graph_factory(device_ctx)

    # --------------------------------------------------------------- analysis
    def estimate_segment(self, from_asn: int, to_asn: int) -> Optional[LinkEstimate]:
        """Delay/loss between two observation points from shared packets."""
        a = self.observers.get(from_asn)
        b = self.observers.get(to_asn)
        if a is None or b is None:
            return None
        sent_uids = set(a.observations)
        if not sent_uids:
            return None
        delays = [b.observations[uid] - a.observations[uid]
                  for uid in sent_uids if uid in b.observations]
        arrived = len(delays)
        loss = 1.0 - arrived / len(sent_uids)
        mean_delay = float(np.mean(delays)) if delays else float("nan")
        return LinkEstimate(from_asn=from_asn, to_asn=to_asn,
                            mean_delay=mean_delay, loss_fraction=loss,
                            samples=arrived)

    def estimate_path(self, path: list[int]) -> list[LinkEstimate]:
        """Segment estimates along an AS path (observation points only)."""
        points = [asn for asn in path if asn in self.observers]
        return [est for a, b in zip(points, points[1:])
                if (est := self.estimate_segment(a, b)) is not None]

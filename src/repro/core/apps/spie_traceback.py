"""Worldwide packet traceback service on the TCS (paper Sec. 4.4).

"Our system could be used to implement a worldwide packet traceback
service such as SPIE by storing a backlog of packet hashes.  This would
enable support for network forensics ...  Such a service would allow the
network user to investigate the origin of spoofed network traffic."

Digest stores run in the *destination-owner* stage (the user traces
packets sent *to* them), installed on whatever scope the user paid for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.components import DigestStoreComponent
from repro.core.device import DeviceContext
from repro.core.deployment import DeploymentScope
from repro.core.graph import ComponentGraph
from repro.core.service import TrafficControlService
from repro.mitigation.traceback import reverse_path
from repro.net.packet import Packet

__all__ = ["SpieTracebackApp", "TcsTraceResult"]


@dataclass
class TcsTraceResult:
    """Path reconstructed from the user's own digest stores."""

    path: list[int] = field(default_factory=list)
    origin_asn: Optional[int] = None
    coverage_gap: bool = False  # walk ended at a device-less AS


class SpieTracebackApp:
    """Deploy digest stores and answer origin queries for owned traffic."""

    def __init__(self, service: TrafficControlService,
                 capacity: int = 50_000, window: float = 1.0,
                 max_windows: int = 16) -> None:
        self.service = service
        self.capacity = capacity
        self.window = window
        self.max_windows = max_windows
        self.stores: dict[int, DigestStoreComponent] = {}

    def graph_factory(self, device_ctx: DeviceContext) -> ComponentGraph:
        store = DigestStoreComponent("spie-digests", capacity=self.capacity,
                                     window=self.window,
                                     max_windows=self.max_windows)
        self.stores[device_ctx.asn] = store
        graph = ComponentGraph(f"spie:{self.service.user.user_id}")
        graph.add(store)
        return graph

    def deploy(self, scope: Optional[DeploymentScope] = None) -> dict[str, list[int]]:
        scope = scope or DeploymentScope.everywhere()
        return self.service.deploy(scope, dst_graph_factory=self.graph_factory)

    # ---------------------------------------------------------------- queries
    def saw(self, asn: int, packet: Packet) -> bool:
        store = self.stores.get(asn)
        return store is not None and store.saw(packet)

    def trace(self, packet: Packet, victim_asn: int) -> TcsTraceResult:
        """Reverse-path walk (:func:`~repro.mitigation.traceback.reverse_path`)
        over the user's digest stores.

        Analogous to SPIE's traceback, but running on the user's own TCS
        deployment — no inter-ISP coordination needed at query time.
        """
        topology = self.service.tcsp.network.topology
        path = reverse_path(topology, victim_asn,
                            lambda asn: self.saw(asn, packet))
        # distinguish "origin reached" from "left our coverage"
        gap = not path and any(n not in self.stores
                               for n in topology.neighbors(victim_asn))
        return TcsTraceResult(path=path, origin_asn=path[-1] if path else None,
                              coverage_gap=gap)

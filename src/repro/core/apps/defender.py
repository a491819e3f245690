"""Reactive defender: observable-signature detection + instant TCS response.

Ties the paper's pieces together on the defense side: the victim watches
its *own* inbound traffic (no ground truth, only packet headers), detects
attack signatures, and answers each with the matching TCS deployment —
exercising "rules ... can be installed, configured and activated
instantly" (Sec. 4.2) against an attacker who keeps switching vectors.

Signatures and responses:

* ``udp-flood``   — off-service UDP rate -> distributed firewall drop rule,
* ``reflection``  — unsolicited replies (DNS answers / SYN-ACKs the victim
  never solicited) -> worldwide anti-spoofing for the victim's prefix,
* ``rst-storm``   — forged teardown rate -> block-RST/ICMP firewall rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.apps.antispoof import AntiSpoofApp
from repro.core.apps.firewall import BLOCK_ICMP_UNREACH, BLOCK_RST, DistributedFirewallApp
from repro.core.compose import RuleSpec
from repro.core.deployment import DeploymentScope
from repro.core.service import TrafficControlService
from repro.net.node import Host
from repro.net.packet import Packet, Protocol, TCPFlags
from repro.util.sketch import SpaceSaving
from repro.util.stats import WindowedCounter

__all__ = ["DefenseAction", "ReactiveDefender"]


@dataclass(frozen=True)
class DefenseAction:
    """One detection -> deployment event."""

    time: float
    signature: str
    response: str
    devices: int


class ReactiveDefender:
    """Watches one victim host and deploys TCS responses on detection."""

    def __init__(self, service: TrafficControlService, victim: Host,
                 threshold_pps: float = 100.0, window: float = 0.2,
                 service_ports: tuple[int, ...] = (80,),
                 thresholds: Optional[dict[str, float]] = None,
                 track_sources: int = 0) -> None:
        self.service = service
        self.victim = victim
        self.service_ports = set(service_ports)
        #: per-signature detection thresholds; teardown storms are low-rate
        #: but lethal, so their default threshold is much lower
        self.thresholds = {
            "udp-flood": threshold_pps,
            "reflection": threshold_pps,
            "rst-storm": min(threshold_pps, 10.0),
        }
        if thresholds:
            self.thresholds.update(thresholds)
        self._signals = {
            "udp-flood": WindowedCounter(window),
            "reflection": WindowedCounter(window),
            "rst-storm": WindowedCounter(window),
        }
        #: per-signature heavy-hitter candidates (``track_sources`` > 0):
        #: O(1) state per signature regardless of attacker fan-in, so the
        #: defender can name suspects without growing a dict per source
        self.source_tracks: dict[str, SpaceSaving] = (
            {sig: SpaceSaving(track_sources) for sig in self._signals}
            if track_sources > 0 else {})
        self.actions: list[DefenseAction] = []
        self._deployed: set[str] = set()
        victim.add_responder(self._observe)

    # -------------------------------------------------------------- detection
    def _classify(self, packet: Packet) -> Optional[str]:
        if packet.proto is Protocol.UDP:
            if packet.sport == 53 and packet.dport not in self.service_ports:
                return "reflection"   # unsolicited DNS-style answer
            if packet.dport not in self.service_ports:
                return "udp-flood"
        if packet.proto is Protocol.TCP:
            if packet.flags.is_synack:
                return "reflection"   # SYN/ACK we never asked for
            if packet.flags & TCPFlags.RST:
                return "rst-storm"
        return None

    def _observe(self, packet: Packet, host: Host, now: float):
        signature = self._classify(packet)
        if signature is None:
            return None
        counter = self._signals[signature]
        counter.add(now)
        if self.source_tracks:
            self.source_tracks[signature].update(int(packet.src))
        if (signature not in self._deployed
                and counter.rate(now) > self.thresholds[signature]):
            self._respond(signature, now)
        return None

    # --------------------------------------------------------------- response
    def _respond(self, signature: str, now: float) -> None:
        self._deployed.add(signature)
        if signature == "udp-flood":
            # drop UDP everywhere except toward the victim's service ports
            rules = [RuleSpec(action="drop", proto="udp",
                              dport_not_in=tuple(sorted(self.service_ports)),
                              label="drop-offservice-udp")]
            app = DistributedFirewallApp(self.service, rules)
            result = app.deploy(DeploymentScope.stub_borders())
            response = "firewall: drop off-service UDP at stub borders"
        elif signature == "reflection":
            app = AntiSpoofApp(self.service)
            result = app.deploy(DeploymentScope.stub_borders())
            response = "anti-spoofing for the victim prefix, worldwide"
        else:  # rst-storm
            app = DistributedFirewallApp(self.service,
                                         [BLOCK_RST, BLOCK_ICMP_UNREACH])
            result = app.deploy(DeploymentScope.everywhere())
            response = "firewall: block forged teardown packets"
        devices = sum(len(v) for v in result.values())
        self.actions.append(DefenseAction(time=now, signature=signature,
                                          response=response, devices=devices))

    # ---------------------------------------------------------------- queries
    def detected(self, signature: str) -> bool:
        return signature in self._deployed

    def reaction_time(self, signature: str, attack_start: float) -> Optional[float]:
        for action in self.actions:
            if action.signature == signature:
                return action.time - attack_start
        return None

    def top_sources(self, signature: str, n: int = 5) -> list[tuple[int, int]]:
        """Heaviest observed sources for ``signature`` (address, count).

        Counts are SpaceSaving upper bounds; the guaranteed-monitored
        property means any source above ``total/track_sources`` appears.
        """
        tracker = self.source_tracks.get(signature)
        return tracker.top(n) if tracker is not None else []

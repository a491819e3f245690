"""SOS / Mayday secure-overlay defense (Keromytis et al. [9], Andersen [4]).

Architecture reproduced from the papers the analysis in Sec. 3.2 refers to:

* clients enter through *secure overlay access points* (SOAPs), which only
  admit **pre-authorised** users (the trust relationships the paper calls
  "costly" to manage);
* traffic is relayed over overlay nodes (SOAP -> beacon -> secret servlet);
* the victim's perimeter (its ISP's router) drops everything except
  traffic sourced at the small set of *secret servlets*.

Reproduced criticisms (Sec. 3.2):

* every legitimate user must pre-establish trust — unauthorised clients
  are simply cut off (collateral),
* traffic takes a longer overlay path (latency stretch, measurable via
  :meth:`SecureOverlay.stretch`),
* "keeping malicious users out of an overlay will be a challenge" — an
  authorised-but-compromised client defeats the perimeter.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import MitigationError
from repro.mitigation.base import Mitigation
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Host, Router
from repro.net.packet import Packet

__all__ = ["SecureOverlay"]


class SecureOverlay(Mitigation):
    """An SOS-style overlay protecting one victim host."""

    name = "sos"

    def __init__(self, victim: Host, overlay_asns: Sequence[int],
                 n_soaps: int = 2, n_beacons: int = 1, n_servlets: int = 1) -> None:
        super().__init__()
        if len(overlay_asns) < n_soaps + n_beacons + n_servlets:
            raise MitigationError(
                f"need >= {n_soaps + n_beacons + n_servlets} overlay ASes, "
                f"got {len(overlay_asns)}"
            )
        self.victim = victim
        self.overlay_asns = list(overlay_asns)
        self.n_soaps = n_soaps
        self.n_beacons = n_beacons
        self.n_servlets = n_servlets
        self.soaps: list[Host] = []
        self.beacons: list[Host] = []
        self.servlets: list[Host] = []
        self.authorized: set[int] = set()  # client address values
        self.rejected_at_soap = 0
        self.perimeter_drops = 0
        self.network: Optional[Network] = None

    # ------------------------------------------------------------------ deploy
    def deploy(self, network: Network, asns: Iterable[int] = ()) -> None:
        """Create the overlay hosts and install the perimeter filter.

        ``asns`` is ignored — the overlay's placement is fixed by
        ``overlay_asns`` and the perimeter sits at the victim's ISP.
        """
        self.network = network
        it = iter(self.overlay_asns)
        self.soaps = [network.add_host(next(it)) for _ in range(self.n_soaps)]
        self.beacons = [network.add_host(next(it)) for _ in range(self.n_beacons)]
        self.servlets = [network.add_host(next(it)) for _ in range(self.n_servlets)]
        for i, soap in enumerate(self.soaps):
            soap.add_responder(self._soap_responder(i))
        for i, beacon in enumerate(self.beacons):
            beacon.add_responder(self._beacon_responder(i))
        for servlet in self.servlets:
            servlet.add_responder(self._servlet_responder())
        self._install_perimeter(network)
        self.deployed_asns.add(self.victim.asn)

    def _install_perimeter(self, network: Network) -> None:
        servlet_addrs = {int(s.address) for s in self.servlets}
        victim_addr = int(self.victim.address)

        def perimeter(packet: Packet, router: Router, link: Optional[Link],
                      now: float) -> bool:
            if int(packet.dst) != victim_addr:
                return True
            if int(packet.src) in servlet_addrs:
                return True
            self.perimeter_drops += 1
            return False

        network.routers[self.victim.asn].add_filter(self.name, perimeter)

    # -------------------------------------------------------------- forwarding
    def _soap_responder(self, index: int):
        def respond(packet: Packet, host: Host, now: float):
            if packet.overlay_dst is None or int(packet.overlay_dst) != int(self.victim.address):
                return None
            if int(packet.src) not in self.authorized:
                self.rejected_at_soap += 1
                return None
            beacon = self.beacons[index % len(self.beacons)]
            fwd = packet.copy(src=host.address, dst=beacon.address)
            return [fwd]

        return respond

    def _beacon_responder(self, index: int):
        def respond(packet: Packet, host: Host, now: float):
            if packet.overlay_dst is None:
                return None
            servlet = self.servlets[index % len(self.servlets)]
            return [packet.copy(src=host.address, dst=servlet.address)]

        return respond

    def _servlet_responder(self):
        def respond(packet: Packet, host: Host, now: float):
            if packet.overlay_dst is None:
                return None
            final = packet.copy(src=host.address, dst=packet.overlay_dst,
                                overlay_dst=None)
            return [final]

        return respond

    # --------------------------------------------------------------- client API
    def authorize(self, client: Host) -> None:
        """Pre-establish the trust relationship SOS requires per user."""
        self.authorized.add(int(client.address))

    def overlay_packet(self, client: Host, template: Packet) -> Packet:
        """Rewrite a victim-bound packet to enter via the client's SOAP."""
        if not self.soaps:
            raise MitigationError("overlay not deployed")
        soap = self.entry_soap(client)
        return template.copy(dst=soap.address, overlay_dst=self.victim.address)

    def entry_soap(self, client: Host) -> Host:
        """Deterministic SOAP choice (closest by AS-hop distance)."""
        assert self.network is not None
        return min(self.soaps,
                   key=lambda s: (len(self.network.path(client.asn, s.asn)), s.name))

    # ----------------------------------------------------------------- metrics
    def stretch(self, client: Host) -> float:
        """Overlay path length / direct path length in AS hops."""
        assert self.network is not None
        soap = self.entry_soap(client)
        beacon = self.beacons[self.soaps.index(soap) % len(self.beacons)]
        servlet = self.servlets[0]
        overlay_hops = (
            len(self.network.path(client.asn, soap.asn)) - 1
            + len(self.network.path(soap.asn, beacon.asn)) - 1
            + len(self.network.path(beacon.asn, servlet.asn)) - 1
            + len(self.network.path(servlet.asn, self.victim.asn)) - 1
        )
        direct = len(self.network.path(client.asn, self.victim.asn)) - 1
        return overlay_hops / direct if direct else float(overlay_hops)

"""Last-hop filtering: the attacked host sets filter rules at its last-hop
IP router (Lakshminarayanan et al. [11], discussed in Sec. 3.1).

"The idea is that the network infrastructure is able to deal with traffic
bursts ... while the attacked host is not able to process incoming
traffic.  An interesting open question is, whether a host is still able to
configure filter rules, if its computing or memory resources are exhausted
under a DDoS attack."

We reproduce both the mechanism and the open question: configuration
attempts *fail* when the victim's inbound packet rate already exceeds its
processing capacity at the moment it tries to install rules — so last-hop
filtering only helps if configured before (or early in) the attack.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.errors import MitigationError
from repro.mitigation.base import Mitigation
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Host, Router
from repro.net.packet import Packet
from repro.util.stats import WindowedCounter

__all__ = ["LastHopFilter"]

RulePredicate = Callable[[Packet], bool]  # True => drop


class LastHopFilter(Mitigation):
    """Victim-configured filter rules on the victim's own last-hop router."""

    name = "lasthop"

    def __init__(self, victim: Host, drop_predicate: RulePredicate,
                 processing_capacity_pps: float = 2_000.0,
                 window: float = 0.25) -> None:
        super().__init__()
        self.victim = victim
        self.drop_predicate = drop_predicate
        self.capacity_pps = processing_capacity_pps
        self.inbound = WindowedCounter(window)
        self.configured = False
        self.dropped = 0
        self.failed_attempts = 0
        self.network: Optional[Network] = None
        # observe inbound load regardless of configuration state
        victim.add_responder(self._observe)

    def _observe(self, packet: Packet, host: Host, now: float):
        self.inbound.add(now)
        return None

    def inbound_pps(self, now: float) -> float:
        return self.inbound.rate(now)

    # ------------------------------------------------------------------ deploy
    def deploy(self, network: Network, asns: Iterable[int] = ()) -> None:
        """Record the network; rules are installed via :meth:`try_configure`."""
        self.network = network

    def try_configure(self) -> bool:
        """The victim attempts to push its rules to the last-hop router.

        Succeeds only while the victim can still process its inbound load;
        under overload the attempt raises the paper's open question and
        returns False.
        """
        if self.network is None:
            raise MitigationError("call deploy() first")
        now = self.network.sim.now
        if self.inbound_pps(now) > self.capacity_pps:
            self.failed_attempts += 1
            return False
        self._install()
        return True

    def _install(self) -> None:
        assert self.network is not None
        victim_addr = int(self.victim.address)

        def filt(packet: Packet, router: Router, link: Optional[Link],
                 now: float) -> bool:
            if int(packet.dst) != victim_addr:
                return True
            if self.drop_predicate(packet):
                self.dropped += 1
                return False
            return True

        self.network.routers[self.victim.asn].add_filter(self.name, filt)
        self.deployed_asns.add(self.victim.asn)
        self.configured = True

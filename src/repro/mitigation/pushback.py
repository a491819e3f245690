"""Pushback: aggregate-based congestion control (Mahajan et al. [13], the
pushback protocol [8]).

Reproduced mechanism (paper Sec. 3.1):

1. *Detection* — each deployed router periodically inspects its links'
   drop statistics; a link whose drop rate exceeds a threshold signals an
   attack ("Pushback performs monitoring by observing packet drop
   statistics in individual routers").
2. *Aggregate identification* — dropped packets are classified by **source
   address prefix**; the heaviest class is taken to be the attack
   aggregate ("The class of source addresses with the highest dropped
   packet count is then considered to originate from the attacker").
3. *Rate limiting + upstream propagation* — a rate limit for the aggregate
   is installed locally, and deployed upstream neighbours (those on the
   routing path from the aggregate) are asked to install it too, up to
   ``max_depth`` hops.  Propagation stops at non-deploying routers ("If a
   router on a path between attacker(s) and victim does not speak the
   protocol, the pushback of filter rules stops").

The paper's criticisms fall straight out of this mechanism: spoofed
sources make step 2 identify innocent prefixes (collateral damage), and in
reflector attacks the identified aggregates are the *reflectors*.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import MitigationError
from repro.mitigation.base import Mitigation
from repro.net.addressing import Prefix
from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Router
from repro.net.packet import Packet
from repro.util.tokenbucket import TokenBucket

__all__ = ["PushbackConfig", "Pushback"]


@dataclass(frozen=True)
class PushbackConfig:
    """Tunables of the pushback control loop."""

    check_interval: float = 0.05       # seconds between drop-stat inspections
    drop_rate_threshold: float = 10_000.0  # bytes/s of drops that signal congestion
    limit_fraction: float = 0.05       # aggregate limit as fraction of link bandwidth
    max_depth: int = 3                 # upstream propagation hops
    top_aggregates: int = 1            # how many source-prefix classes to limit
    min_drops_to_classify: int = 5     # don't act on a handful of drops

    def __post_init__(self) -> None:
        if self.check_interval <= 0 or self.max_depth < 0:
            raise MitigationError("invalid pushback config")


class Pushback(Mitigation):
    """The pushback baseline, driven by the event simulator."""

    name = "pushback"

    def __init__(self, config: PushbackConfig | None = None) -> None:
        super().__init__()
        self.config = config or PushbackConfig()
        self.network: Optional[Network] = None
        # active rate limits: asn -> {aggregate prefix -> token bucket (bytes)}
        self.limits: dict[int, dict[Prefix, TokenBucket]] = {}
        self.identified_aggregates: set[Prefix] = set()
        self.rate_limited_drops = 0
        self.activations = 0

    # ------------------------------------------------------------------ deploy
    def deploy(self, network: Network, asns: Iterable[int],
               until: float = 60.0) -> None:
        """Install pushback on the given ASes.

        ``until`` bounds the periodic detection loop in simulation time —
        without a bound, the recurring checks would keep the event queue
        non-empty forever and ``network.run()`` would never drain.
        """
        self.network = network
        for asn in asns:
            router = network.routers[asn]
            router.add_filter(self.name, self._make_filter(asn))
            self.deployed_asns.add(asn)
            network.sim.schedule_every(self.config.check_interval, self._check,
                                       asn, until=until)

    def _make_filter(self, asn: int):
        def filt(packet: Packet, router: Router, link: Optional[Link], now: float) -> bool:
            buckets = self.limits.get(asn)
            if not buckets:
                return True
            for prefix, bucket in buckets.items():
                if prefix.contains(packet.src):
                    if bucket.admit(now, cost=packet.size):
                        return True
                    self.rate_limited_drops += 1
                    return False
            return True

        return filt

    # --------------------------------------------------------------- detection
    def _check(self, asn: int) -> None:
        assert self.network is not None
        router = self.network.routers[asn]
        now = self.network.sim.now
        links = list(router.links.values()) + list(router.host_links.values())
        for link in links:
            if link.drop_rate(now) < self.config.drop_rate_threshold:
                continue
            aggregates = self._classify(link)
            for prefix in aggregates:
                limit = self.config.limit_fraction * link.bandwidth / 8.0  # bytes/s
                self._install(asn, prefix, limit, self.config.max_depth)

    def _classify(self, link: Link) -> list[Prefix]:
        """Heaviest source-prefix classes among recently dropped packets."""
        assert self.network is not None
        counts: Counter[Prefix] = Counter()
        for _, packet in link.drop_log[-500:]:
            src_asn = self.network.topology.as_of(packet.src)
            if src_asn is not None:
                counts[self.network.topology.prefix_of(src_asn)] += 1
        total = sum(counts.values())
        if total < self.config.min_drops_to_classify:
            return []
        return [p for p, _ in counts.most_common(self.config.top_aggregates)]

    # ------------------------------------------------------------- propagation
    def _install(self, asn: int, prefix: Prefix, limit_bytes_s: float, depth: int) -> None:
        assert self.network is not None
        buckets = self.limits.setdefault(asn, {})
        if prefix not in buckets:
            buckets[prefix] = TokenBucket(rate=limit_bytes_s,
                                          burst=max(limit_bytes_s * 0.1, 1500.0))
            self.identified_aggregates.add(prefix)
            self.activations += 1
        if depth <= 0:
            return
        # ask deployed upstream neighbours (toward the aggregate source)
        aggregate_asn = self.network.topology.prefix_table.lookup(prefix.first)
        if aggregate_asn is None or aggregate_asn == asn:
            return
        for neighbour in self.network.routing.expected_ingress(asn, aggregate_asn):
            if neighbour in self.deployed_asns and prefix not in self.limits.get(neighbour, {}):
                self._install(neighbour, prefix, limit_bytes_s, depth - 1)

    # ----------------------------------------------------------------- queries
    def identified_asns(self) -> set[int]:
        """ASes of the prefixes pushback decided were "the attacker"."""
        assert self.network is not None
        out = set()
        for prefix in self.identified_aggregates:
            asn = self.network.topology.prefix_table.lookup(prefix.first)
            if asn is not None:
                out.add(asn)
        return out

    def limits_installed(self) -> int:
        return sum(len(b) for b in self.limits.values())

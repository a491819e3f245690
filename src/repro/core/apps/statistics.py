"""Distributed traffic statistics (paper Secs. 1, 4.4 and 4.6).

"new ways of collecting traffic statistics" / "customers ... that want to
gather distributed traffic statistics for their sites" — the owner deploys
statistics collectors across the network and aggregates them into a
traffic matrix: where does my traffic come from, by which protocol, at
which rates, observed *inside* the network rather than only at the uplink.

The per-flow store behind each collector is pluggable
(:mod:`repro.core.flowstats`): the default ``exact`` backend keeps the
historical byte-identical ``Counter`` semantics, while the sketch
backends cap device state at O(1) regardless of attacker fan-in — the
Sec. 5.3 scalability stance ("rules scale with subscribers, not hosts")
applied to the statistics service itself.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.components import PASS, Capabilities, Component, ComponentContext, Verdict
from repro.core.device import DeviceContext
from repro.core.deployment import DeploymentScope
from repro.core.flowstats import FlowStatsBackend, make_flow_stats
from repro.core.graph import ComponentGraph
from repro.core.service import TrafficControlService
from repro.net.packet import Packet, Protocol
from repro.obs.metrics import declare

__all__ = [
    "TrafficMatrixCollector", "DistributedStatisticsApp", "TrafficReport",
    "encode_flow_key", "decode_flow_key",
]

_SKETCH_UPDATES = declare(
    "stats.sketch.updates", "counter", labels=("asn",),
    help="flow-key observations folded into the statistics backend")
_SKETCH_BYTES = declare(
    "stats.sketch.bytes", "gauge", labels=("asn",),
    help="bytes of per-flow statistics state across the AS's collectors")
_RESOLVER_HITS = declare(
    "stats.resolver_cache_hits", "counter", labels=("asn",),
    help="source-AS resolutions served from the collector's LRU")
_RESOLVER_MISSES = declare(
    "stats.resolver_cache_misses", "counter", labels=("asn",),
    help="source-AS resolutions that went to the prefix table")

#: AS number field of an encoded flow key meaning "no AS owns this source".
_NO_ASN = 0xFFFFFFFF


def encode_flow_key(src_asn: int, proto_value: int) -> int:
    """Pack ``(source AS, protocol number)`` into one integer sketch key."""
    return ((src_asn & _NO_ASN) << 8) | (proto_value & 0xFF)


def decode_flow_key(key: int) -> tuple[int, str]:
    """Inverse of :func:`encode_flow_key` — ``(src_asn, proto_name)``."""
    asn = key >> 8
    return (-1 if asn == _NO_ASN else asn), Protocol(key & 0xFF).name


class TrafficMatrixCollector(Component):
    """Per-device collector of (source AS x protocol) packet/byte counts.

    ``backend`` picks the flow-statistics store ("exact" | "bloom" |
    "cmsketch" | "countsketch", or a ready
    :class:`~repro.core.flowstats.FlowStatsBackend`).  ``resolver`` maps a
    source address to its AS (memoized through a small LRU).
    """

    capabilities = Capabilities(extra_traffic_bps=2_000.0)

    def __init__(self, name: str = "traffic-matrix", resolver=None,
                 backend: Union[str, FlowStatsBackend] = "exact",
                 seed: int = 0, resolver_cache: int = 1024,
                 **backend_params) -> None:
        super().__init__(name)
        #: maps an address value to an AS number (injected at deploy time)
        self.resolver = resolver
        self.stats: FlowStatsBackend = make_flow_stats(
            backend, seed=seed, **backend_params)
        self.first_seen: Optional[float] = None
        self.last_seen: Optional[float] = None
        self._cache: OrderedDict[int, int] = OrderedDict()
        self._cache_cap = max(0, resolver_cache)
        self._m_updates = self._m_bytes = None
        self._m_hits = self._m_misses = None
        self._published_bytes = 0

    # ------------------------------------------------------------- resolving
    def _bind_metrics(self, asn: int) -> None:
        # several collectors on one device share the asn series, so a
        # late binder must join the running total, not zero it
        label = str(asn)
        self._m_updates = _SKETCH_UPDATES.labelled(fresh=False, asn=label)
        self._m_bytes = _SKETCH_BYTES.labelled(fresh=False, asn=label)
        self._m_hits = _RESOLVER_HITS.labelled(fresh=False, asn=label)
        self._m_misses = _RESOLVER_MISSES.labelled(fresh=False, asn=label)

    def _publish_state_bytes(self) -> None:
        # the gauge aggregates all collectors on the series: publish this
        # collector's growth as a delta so the sum stays order-independent
        state = self.stats.state_bytes()
        self._m_bytes.value += state - self._published_bytes
        self._published_bytes = state

    def _resolve(self, addr: int) -> int:
        """Source AS of ``addr`` through the memoizing LRU."""
        if self.resolver is None:
            return -1
        cache = self._cache
        asn = cache.get(addr)
        if asn is not None:
            cache.move_to_end(addr)
            self._m_hits.value += 1
            return asn
        self._m_misses.value += 1
        resolved = self.resolver(addr)
        asn = -1 if resolved is None else int(resolved)
        if self._cache_cap:
            cache[addr] = asn
            if len(cache) > self._cache_cap:
                cache.popitem(last=False)
        return asn

    # ------------------------------------------------------------ processing
    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        if self._m_updates is None:
            self._bind_metrics(ctx.asn)
        src_asn = self._resolve(int(packet.src))
        self.stats.add(encode_flow_key(src_asn, packet.proto.value),
                       1, packet.size)
        self._m_updates.value += 1
        self._publish_state_bytes()
        if self.first_seen is None:
            self.first_seen = ctx.now
        self.last_seen = ctx.now
        return PASS

    # ----------------------------------------------------------- legacy view
    @property
    def packets(self) -> Counter:
        """(src asn, proto name) -> packets, in first-seen order.

        A decoded view over the backend; with the exact backend this is
        content- and order-identical to the historical ``Counter``
        attribute.  Sketch backends enumerate tracked heavy hitters only.
        """
        return Counter({decode_flow_key(k): p
                        for k, p, _b in self.stats.items()})

    @property
    def bytes(self) -> Counter:
        return Counter({decode_flow_key(k): b
                        for k, _p, b in self.stats.items()})

    @property
    def resolver_cache_hits(self) -> int:
        return self._m_hits.value if self._m_hits is not None else 0

    @property
    def resolver_cache_misses(self) -> int:
        return self._m_misses.value if self._m_misses is not None else 0


@dataclass
class TrafficReport:
    """Aggregated view over all devices."""

    packets_by_src_asn: dict[int, int] = field(default_factory=dict)
    bytes_by_src_asn: dict[int, int] = field(default_factory=dict)
    packets_by_proto: dict[str, int] = field(default_factory=dict)
    observation_points: int = 0
    duration: float = 0.0
    state_bytes: int = 0

    def top_sources(self, n: int = 5) -> list[tuple[int, int]]:
        """(src asn, bytes) of the heaviest sources."""
        return sorted(self.bytes_by_src_asn.items(),
                      key=lambda kv: -kv[1])[:n]

    def rate_bps(self, src_asn: Optional[int] = None) -> float:
        if self.duration <= 0:
            return 0.0
        if src_asn is None:
            total = sum(self.bytes_by_src_asn.values())
        else:
            total = self.bytes_by_src_asn.get(src_asn, 0)
        return total * 8 / self.duration


class DistributedStatisticsApp:
    """Deploy traffic-matrix collectors and aggregate their counters.

    ``backend`` (+ ``backend_params``) selects the per-device flow store;
    the exact default reproduces the historical reports byte-for-byte.
    """

    def __init__(self, service: TrafficControlService,
                 backend: str = "exact", seed: int = 0,
                 **backend_params) -> None:
        self.service = service
        self.backend = backend
        self.seed = seed
        self.backend_params = backend_params
        self.collectors: dict[int, TrafficMatrixCollector] = {}

    def graph_factory(self, device_ctx: DeviceContext) -> ComponentGraph:
        topology = self.service.tcsp.network.topology
        collector = TrafficMatrixCollector(
            resolver=topology.as_of, backend=self.backend,
            seed=self.seed + device_ctx.asn, **self.backend_params)
        self.collectors[device_ctx.asn] = collector
        graph = ComponentGraph(f"stats:{self.service.user.user_id}")
        graph.add(collector)
        return graph

    def deploy(self, scope: Optional[DeploymentScope] = None) -> dict[str, list[int]]:
        scope = scope or DeploymentScope.everywhere()
        return self.service.deploy(scope, dst_graph_factory=self.graph_factory)

    # -------------------------------------------------------------- reporting
    def report(self, at_asn: Optional[int] = None) -> TrafficReport:
        """Aggregate (one device's or all devices') counters.

        Note that aggregating over *all* devices counts a packet once per
        observation point; for volume accounting use ``at_asn`` (e.g. the
        owner's own AS) — for path-coverage analyses use the global view.
        """
        report = TrafficReport()
        selected = ([self.collectors[at_asn]] if at_asn is not None
                    else list(self.collectors.values()))
        first, last = None, None
        for collector in selected:
            report.state_bytes += collector.stats.state_bytes()
            if collector.first_seen is None:
                continue
            report.observation_points += 1
            first = (collector.first_seen if first is None
                     else min(first, collector.first_seen))
            last = (collector.last_seen if last is None
                    else max(last, collector.last_seen))
            for key, pkts, nbytes in collector.stats.items():
                asn, proto = decode_flow_key(key)
                report.packets_by_src_asn[asn] = (
                    report.packets_by_src_asn.get(asn, 0) + pkts)
                report.packets_by_proto[proto] = (
                    report.packets_by_proto.get(proto, 0) + pkts)
                report.bytes_by_src_asn[asn] = (
                    report.bytes_by_src_asn.get(asn, 0) + nbytes)
        if first is not None and last is not None:
            report.duration = max(last - first, 1e-9)
        return report

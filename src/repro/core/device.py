"""The adaptive device (paper Figs. 2 and 6, Secs. 4.1-4.2, 5.2).

A programmable traffic-processing device attached to a router.  The router
redirects a packet to the device **only** when the packet is owned by a
registered network user ("Most traffic will use the direct path through
the router"); the device then runs up to two processing stages:

1. the *source-owner* stage — the graph installed by the owner of the
   packet's source address,
2. the *destination-owner* stage — the graph installed by the owner of the
   destination address,

"analogous to the high-level communication process of first sending an
Internet packet by the source (and hence under its control) and then
receiving it by the destination" (Sec. 4.1).

Scope confinement is structural: a user's graphs only ever see packets
that user owns, so "a network user can only get control over the IP
packets he or she owns".  Every stage runs under the
:class:`~repro.core.safety.SafetyMonitor`; a violating service is disabled
on the spot.

The decision path itself — redirect decision behind the per-flow LRU
cache, the two-stage pipeline and the safety containment — lives in the
engine-agnostic :class:`repro.service.core.DecisionCore`.  This class
keeps only what is simulator-specific around it (crash/fail-policy
lifecycle and routing-update reactions) and injects its ``device.*``
registry counters into the shared core, so the extraction is invisible
to every experiment table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser, OwnershipRegistry
from repro.core.safety import SafetyMonitor
from repro.net.addressing import Prefix
from repro.net.packet import Packet
from repro.net.topology import ASRole
from repro.obs.metrics import declare, reset_metrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.policy.compiler import CompiledPolicy
    from repro.service.core import DecisionCore

__all__ = ["DeviceContext", "ServiceInstance", "AdaptiveDevice"]

_REDIRECTED = declare("device.redirected", "counter", labels=("asn",),
                      help="packets redirected into the device's stages")
_DROPPED = declare("device.dropped", "counter", labels=("asn",),
                   help="packets dropped by a processing stage (or fail-closed)")
_SAFETY_DISABLES = declare("device.safety_disables", "counter", labels=("asn",),
                           help="services disabled for safety violations")
_CRASHES = declare("device.crashes", "counter", labels=("asn",),
                   help="injected device crashes")
_RESTARTS = declare("device.restarts", "counter", labels=("asn",),
                    help="post-crash restarts (wiped, Sec. 4.5)")
_FC_HITS = declare("device.flow_cache_hits", "counter", labels=("asn",),
                   help="redirect decisions served from the flow cache")
_FC_MISSES = declare("device.flow_cache_misses", "counter", labels=("asn",),
                     help="redirect decisions resolved via the slow path")


@dataclass(frozen=True)
class DeviceContext:
    """Where the device sits — the Sec. 4.2 contextual information."""

    asn: int
    role: ASRole
    local_prefix: Prefix

    @property
    def is_transit(self) -> bool:
        return self.role is not ASRole.STUB


@dataclass(eq=False)  # identity: a replay record names its instances
class ServiceInstance:
    """One network user's installed service on one device.

    ``src_program`` runs in the source-owner stage, ``dst_program`` in the
    destination-owner stage (either may be absent): each is the program
    :meth:`~repro.service.core.DecisionCore.install` compiled from a stage
    graph, which ``src_graph``/``dst_graph`` read back.  ``active``
    supports the instant activate/deactivate of Sec. 4.2 ("activated
    instantly", "triggers can automatically activate predefined
    additional configurations").
    """

    user: NetworkUser
    src_program: Optional["CompiledPolicy"] = None
    dst_program: Optional["CompiledPolicy"] = None
    active: bool = True
    disabled_for_violation: bool = False
    monitor: SafetyMonitor = field(default_factory=SafetyMonitor)

    @property
    def src_graph(self) -> Optional[ComponentGraph]:
        return None if self.src_program is None else self.src_program.graph

    @property
    def dst_graph(self) -> Optional[ComponentGraph]:
        return None if self.dst_program is None else self.dst_program.graph

    def rule_count(self) -> int:
        n = 0
        for graph in (self.src_graph, self.dst_graph):
            if graph is not None:
                n += len(graph)
        return n


class AdaptiveDevice:
    """The programmable device co-located with one AS's router."""

    def __init__(self, context: DeviceContext, registry: OwnershipRegistry,
                 strict: bool = True, stage_order: str = "src-first") -> None:
        # lazy import: repro.service.core imports repro.core modules, so a
        # module-level import here would deadlock whichever package is
        # imported first; at construction time both are fully loaded
        from repro.service.core import DecisionCore

        self.context = context
        self.registry = registry
        # registry-backed counters, labelled by this device's AS number;
        # the legacy attributes below are property views over these
        asn = str(context.asn)
        self._m_redirected = _REDIRECTED.labelled(asn=asn)
        self._m_dropped = _DROPPED.labelled(asn=asn)
        self._m_safety_disables = _SAFETY_DISABLES.labelled(asn=asn)
        self._m_crashes = _CRASHES.labelled(asn=asn)
        self._m_restarts = _RESTARTS.labelled(asn=asn)
        self._m_fc_hits = _FC_HITS.labelled(asn=asn)
        self._m_fc_misses = _FC_MISSES.labelled(asn=asn)
        #: the shared decision path (flow cache + ownership LPM + two-stage
        #: pipeline + safety containment), accounting into this device's
        #: ``device.*`` counters
        self._core: "DecisionCore" = DecisionCore(
            context, registry, strict=strict, stage_order=stage_order,
            counters={
                "redirected": self._m_redirected,
                "dropped": self._m_dropped,
                "safety_disables": self._m_safety_disables,
                "flow_cache_hits": self._m_fc_hits,
                "flow_cache_misses": self._m_fc_misses,
            })
        #: the same dict object as ``self._core.services`` — mutations
        #: through either alias are seen by both
        self.services: dict[str, ServiceInstance] = self._core.services
        #: crash/restart lifecycle (fault injection): a crashed device holds
        #: no usable configuration.  ``fail_policy`` picks the Sec. 4.5
        #: stance while down: "fail-open" lets owned traffic take the
        #: router's direct path unfiltered; "fail-closed" drops owned
        #: traffic until the NMS re-installs services after restart.
        self.crashed = False
        self.fail_policy = "fail-open"
        #: Sec. 4.2 routing-update reaction (see :meth:`on_routing_update`):
        #: "adapt" keeps services running, "disable" parks every service
        #: with a topology-dependent component in ``pending_routing_reconfig``
        self.routing_update_policy = "adapt"
        self.routing_updates = 0
        self.pending_routing_reconfig: set[str] = set()

    # ------------------------------------------------- read-only stat views
    @property
    def redirected(self) -> int:
        return self._m_redirected.value

    @property
    def dropped(self) -> int:
        return self._m_dropped.value

    @property
    def safety_disables(self) -> int:
        return self._m_safety_disables.value

    @property
    def crashes(self) -> int:
        return self._m_crashes.value

    @property
    def restarts(self) -> int:
        return self._m_restarts.value

    @property
    def flow_cache_hits(self) -> int:
        return self._m_fc_hits.value

    @property
    def flow_cache_misses(self) -> int:
        return self._m_fc_misses.value

    def reset_stats(self) -> None:
        """Zero all counters (between experiment phases) — the mirror of
        :meth:`repro.net.link.Link.reset_stats`, via the same registry
        reset path.  Installed services, crash state and the flow cache's
        *contents* are untouched; only the accounting is zeroed."""
        reset_metrics((self._m_redirected, self._m_dropped,
                       self._m_safety_disables, self._m_crashes,
                       self._m_restarts, self._m_fc_hits, self._m_fc_misses))

    # -------------------------------------------------------------- management
    def install(self, user: NetworkUser, src_graph: Optional[ComponentGraph] = None,
                dst_graph: Optional[ComponentGraph] = None) -> ServiceInstance:
        """Install (after vetting) a user's stage graphs on this device."""
        return self._core.install(user, src_graph, dst_graph)

    def uninstall(self, user_id: str) -> bool:
        return self._core.uninstall(user_id)

    def set_active(self, user_id: str, active: bool) -> None:
        self._core.set_active(user_id, active)

    def rule_count(self) -> int:
        """Total installed components — the Sec. 5.3 scaling quantity."""
        return self._core.rule_count()

    # ------------------------------------------------------- crash lifecycle
    def crash(self) -> None:
        """Take the device down (fault injection).

        While crashed the device processes nothing; what happens to owned
        traffic is decided by ``fail_policy`` in :meth:`wants`.
        """
        self.crashed = True
        self._m_crashes.value += 1
        self.invalidate_flow_cache()

    def restart(self) -> None:
        """Bring the device back up **with empty configuration**.

        Sec. 4.5: a restarting device must never resume filtering with
        state its owners no longer control, so every installed service is
        wiped; the NMS watchdog's anti-entropy pass re-installs what should
        be present (:meth:`repro.core.nms.IspNms.reconcile_device`).
        Services parked by a routing update are forgotten with them.
        """
        self.services.clear()
        self.pending_routing_reconfig.clear()
        self.crashed = False
        self._m_restarts.value += 1
        self.invalidate_flow_cache()

    # -------------------------------------------------------- routing updates
    def on_routing_update(self) -> list[str]:
        """React to a routing/topology change (Sec. 4.2).

        With ``routing_update_policy == "adapt"`` (default) the device
        re-derives its context and keeps running; with ``"disable"`` every
        service containing a topology-dependent component is deactivated
        until :meth:`reconfirm_topology` (the NMS pushing fresh
        configuration) re-enables it.  Returns the affected user ids.
        """
        self.routing_updates += 1
        policy = self.routing_update_policy
        affected: list[str] = []
        for user_id, instance in self.services.items():
            has_topo = any(
                component.topology_dependent
                for graph in (instance.src_graph, instance.dst_graph)
                if graph is not None
                for component in graph.components()
            )
            if has_topo:
                affected.append(user_id)
                if policy == "disable":
                    instance.active = False
        if policy == "disable":
            self.pending_routing_reconfig.update(affected)
            if affected:
                self.invalidate_flow_cache()
        return affected

    def reconfirm_topology(self, user_id: Optional[str] = None) -> int:
        """Re-enable services disabled by a routing update; returns count."""
        pending = self.pending_routing_reconfig
        targets = [user_id] if user_id is not None else list(pending)
        revived = 0
        for uid in targets:
            if uid in pending and uid in self.services:
                self.services[uid].active = True
                pending.discard(uid)
                revived += 1
        if revived:
            self.invalidate_flow_cache()
        return revived

    # -------------------------------------------------------------- fast path
    def invalidate_flow_cache(self) -> None:
        """Drop every cached per-flow decision (service set changed)."""
        self._core.invalidate()

    @property
    def flow_cache_hit_rate(self) -> float:
        """Fraction of flow lookups served from the cache so far."""
        total = self.flow_cache_hits + self.flow_cache_misses
        return self.flow_cache_hits / total if total else 0.0

    def wants(self, packet: Packet) -> bool:
        """Redirect decision: does a registered user with a service here own
        this packet?  Everything else takes the router's direct path.

        A crashed device claims nothing under "fail-open" (owned traffic
        takes the router's direct path, unfiltered) and claims every owned
        packet under "fail-closed" (:meth:`process` then drops it).
        """
        if self.crashed:
            if self.fail_policy == "fail-open":
                return False
            src_owner, dst_owner = self.registry.owners_of_packet(packet)
            return src_owner is not None or dst_owner is not None
        return self._core.wants(packet)

    def process(self, packet: Packet, now: float,
                ingress_asn: Optional[int]) -> Optional[Packet]:
        """Run the two processing stages; None means the packet was dropped."""
        if self.crashed:
            # only reachable under "fail-closed": owned traffic is blocked
            # until the NMS reconciles the restarted device
            self._m_dropped.value += 1
            return None
        return self._core.process(packet, now, ingress_asn)


def attach_device(network: "Network", asn: int,
                  registry: OwnershipRegistry) -> AdaptiveDevice:
    """Create an adaptive device and hook it to the AS's router (Fig. 2).

    Live-network devices run in containment mode (strict=False): a safety
    violation disables the offending service instead of halting forwarding.
    """
    topo = network.topology
    context = DeviceContext(asn=asn, role=topo.role_of(asn),
                            local_prefix=topo.prefix_of(asn))
    device = AdaptiveDevice(context, registry, strict=False)
    network.routers[asn].adaptive_device = device
    return device

"""Per-ISP network management systems (paper Figs. 3 and 5, Sec. 5.1).

Each ISP runs an NMS that (a) attaches adaptive devices to its routers,
(b) installs/configures service components on them when instructed by the
TCSP, and (c) — crucially for availability — accepts *direct* requests
from certificate-bearing network users, so the service stays controllable
"if the network conditions are such that the TCSP can no longer be
reached, e.g. because of an ongoing DDoS attack on the TCSP".  An NMS can
also forward configurations to peer NMSes on the user's behalf.

Resilience layer (DESIGN.md: failure model & recovery):

* every control-plane hop into this NMS goes through a retry-aware
  :class:`~repro.core.rpc.ControlChannel` (``self.channel``) which loses
  messages while the NMS is ``partitioned`` or a fault injector says so;
* the NMS remembers the *desired* configuration of every device
  (:class:`DesiredService`), so a watchdog heartbeat
  (:meth:`start_watchdog`) can detect crashed devices and — once they
  restart wiped, per Sec. 4.5 — re-install what should be present
  (:meth:`reconcile_device`, anti-entropy).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, TYPE_CHECKING

from repro.errors import CertificateError, ControlPlaneUnavailable, \
    DeploymentError, ScopeViolation
from repro.core.certificates import CertificateAuthority, OwnershipCertificate
from repro.core.device import AdaptiveDevice, DeviceContext, attach_device
from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser, OwnershipRegistry
from repro.core.rpc import ControlChannel
from repro.core.storage import InMemoryBackend, StorageBackend, StoreTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["IspNms", "GraphFactory", "DesiredService"]

#: builds a stage graph specialised to one device's context
GraphFactory = Callable[[DeviceContext], ComponentGraph]
#: the (source, dest) graph factories deployed on one AS
StageFactories = tuple[Optional[GraphFactory], Optional[GraphFactory]]

#: watchdog heartbeat period (seconds, simulated)
WATCHDOG_INTERVAL = 0.25


@dataclass
class DesiredService:
    """What this NMS believes one user's deployment should look like —
    the source of truth for anti-entropy reconciliation."""

    cert: OwnershipCertificate
    user: NetworkUser
    #: target AS -> the factories deployed there; a deploy that leaves a
    #: stage out keeps that AS's earlier factory
    factories: dict[int, StageFactories] = field(default_factory=dict)
    active: bool = True


class IspNms:
    """The network management system of one ISP (a set of ASes)."""

    def __init__(self, isp_id: str, network: "Network", asns: Iterable[int],
                 ca: CertificateAuthority,
                 store: Optional[StorageBackend] = None) -> None:
        self.isp_id = isp_id
        self.network = network
        self.asns: set[int] = set(asns)
        self.ca = ca
        self.registry = OwnershipRegistry()
        self.devices: dict[int, AdaptiveDevice] = {}
        self.peers: list["IspNms"] = []
        self.deployments = 0
        self.direct_requests = 0
        #: True while this NMS is cut off from the control plane
        self.partitioned = False
        #: retry-aware channel every inbound control call goes through
        self.channel = ControlChannel(
            f"nms:{isp_id}", clock=lambda: network.sim.now,
            down_fn=lambda: self.partitioned,
        )
        #: storage backend the desired state lives on (DESIGN.md §9);
        #: process-local memory by default — which a shard crash wipes
        self.store: StorageBackend = store if store is not None \
            else InMemoryBackend()
        self._desired_table = f"nms.{isp_id}.desired"
        #: desired per-user deployment state (anti-entropy source of truth)
        self.desired: StoreTable = StoreTable(self.store, self._desired_table)
        # watchdog / reconciliation state
        self._watchdog_event = None
        self._seen_restarts: dict[int, int] = {}
        self.watchdog_ticks = 0
        self.devices_seen_down = 0
        self.reconciliations = 0
        self.services_reinstalled = 0
        self.forward_failures = 0
        #: shard-crash lifecycle (fault injection)
        self.nms_crashes = 0
        self.desired_lost_in_crashes = 0

    # ----------------------------------------------------------------- devices
    def attach_devices(self, asns: Optional[Iterable[int]] = None) -> None:
        """Attach adaptive devices to (a subset of) this ISP's routers."""
        for asn in (self.asns if asns is None else asns):
            if asn not in self.asns:
                raise DeploymentError(f"{self.isp_id}: AS {asn} is not ours")
            if asn not in self.devices:
                self.devices[asn] = attach_device(self.network, asn, self.registry)
                if self._watchdog_event is not None:
                    # a running watchdog must baseline the restart counter
                    # *now*: a crash+restart of this late-attached device
                    # before its first heartbeat would otherwise be
                    # invisible to anti-entropy
                    self._seen_restarts[asn] = self.devices[asn].restarts

    def device_at(self, asn: int) -> AdaptiveDevice:
        try:
            return self.devices[asn]
        except KeyError as exc:
            raise DeploymentError(f"{self.isp_id}: no device at AS {asn}") from exc

    # -------------------------------------------------------------- deployment
    def deploy(self, cert: OwnershipCertificate, user: NetworkUser,
               target_asns: Iterable[int],
               src_graph_factory: Optional[GraphFactory] = None,
               dst_graph_factory: Optional[GraphFactory] = None) -> list[int]:
        """Install a user's service on this ISP's devices (Fig. 5 step
        'deploy/configure service components').

        The certificate is verified, and the user identity must match —
        the ISP-side half of the safe-delegation contract.  Returns the
        ASes actually configured.
        """
        self.ca.verify(cert, self.network.sim.now)
        if cert.user_id != user.user_id:
            raise CertificateError(
                f"certificate for {cert.user_id!r} used by {user.user_id!r}"
            )
        for prefix in user.prefixes:
            if not cert.covers(prefix):
                raise ScopeViolation(
                    f"user {user.user_id!r} claims prefix {prefix} outside "
                    f"its certificate"
                )
        if any(self.registry.owner_of(prefix.first) is None
               for prefix in user.prefixes):
            # (re-)register whenever ANY claimed prefix is missing — a user
            # whose first prefix was registered earlier can still bring new
            # prefixes that need ownership entries of their own
            self.registry.register(user)
        configured: list[int] = []
        crashed: list[int] = []
        # at most one store read per deploy
        desired = functools.cache(lambda: self.desired.get(user.user_id))
        for asn in sorted(set(target_asns) & self.asns):
            device = self.devices.get(asn)
            if device is None:
                continue  # no device here (yet)
            if device.crashed:
                # down now: the watchdog installs it once it restarts
                crashed.append(asn)
                continue
            src_factory, dst_factory = src_graph_factory, dst_graph_factory
            want = desired() if user.user_id not in device.services else None
            if want is not None:
                # a device that lost the service to a restart gets back
                # every stage earlier deploys put there
                src_before, dst_before = want.factories.get(asn, (None, None))
                src_factory = src_factory or src_before
                dst_factory = dst_factory or dst_before
            src_graph = src_factory(device.context) if src_factory else None
            dst_graph = dst_factory(device.context) if dst_factory else None
            if src_graph is None and dst_graph is None:
                continue
            device.install(user, src_graph=src_graph, dst_graph=dst_graph)
            if want is not None and not want.active:
                # a new instance joins the user's deactivation
                device.set_active(user.user_id, False)
            configured.append(asn)
        self.deployments += 1
        if configured or crashed:
            self._remember(desired(), cert, user, configured + crashed,
                           src_graph_factory, dst_graph_factory)
        return configured

    def _remember(self, want: Optional[DesiredService],
                  cert: OwnershipCertificate, user: NetworkUser,
                  asns: list[int],
                  src_graph_factory: Optional[GraphFactory],
                  dst_graph_factory: Optional[GraphFactory]) -> None:
        """Record/extend the desired state a deployment establishes."""
        if want is None:
            want = DesiredService(cert=cert, user=user)
            self.desired[user.user_id] = want
        want.cert = cert
        for asn in asns:
            src, dst = want.factories.get(asn, (None, None))
            want.factories[asn] = (src_graph_factory or src,
                                   dst_graph_factory or dst)

    def deploy_direct(self, cert: OwnershipCertificate, user: NetworkUser,
                      target_asns: Iterable[int],
                      src_graph_factory: Optional[GraphFactory] = None,
                      dst_graph_factory: Optional[GraphFactory] = None,
                      forward_to_peers: bool = False) -> list[int]:
        """Direct user -> NMS path (TCSP unreachable, Sec. 5.1).

        With ``forward_to_peers`` the NMS relays the configuration to its
        peer NMSes "upon request of the network user" — through each
        peer's retry-aware channel, so a partitioned or lossy peer link is
        retried and, if exhausted, skipped (counted in
        ``forward_failures``) instead of aborting the whole request.
        """
        self.direct_requests += 1
        configured = self.deploy(cert, user, target_asns,
                                 src_graph_factory, dst_graph_factory)
        if forward_to_peers:
            for peer in self.peers:
                try:
                    configured += peer.channel.call(
                        "deploy", peer.deploy, cert, user, target_asns,
                        src_graph_factory, dst_graph_factory,
                    )
                except ControlPlaneUnavailable:
                    self.forward_failures += 1
        return configured

    # ------------------------------------------------------------- management
    def set_active(self, cert: OwnershipCertificate, user_id: str,
                   active: bool) -> int:
        """Activate/deactivate a user's service on all our devices."""
        self.ca.verify(cert, self.network.sim.now)
        if cert.user_id != user_id:
            raise CertificateError("certificate/user mismatch")
        touched = 0
        for device in self.devices.values():
            if user_id in device.services:
                device.set_active(user_id, active)
                touched += 1
        want = self.desired.get(user_id)
        if want is not None:
            want.active = active
        return touched

    def read_logs(self, cert: OwnershipCertificate, user_id: str) -> list[tuple]:
        """Collect the user's logger entries across our devices."""
        self.ca.verify(cert, self.network.sim.now)
        if cert.user_id != user_id:
            raise CertificateError("certificate/user mismatch")
        from repro.core.components import LoggerComponent

        entries: list[tuple] = []
        for device in self.devices.values():
            instance = device.services.get(user_id)
            if instance is None:
                continue
            for graph in (instance.src_graph, instance.dst_graph):
                if graph is None:
                    continue
                for component in graph.components():
                    if isinstance(component, LoggerComponent):
                        entries.extend(component.entries)
        return sorted(entries)

    def rule_count(self) -> int:
        return sum(d.rule_count() for d in self.devices.values())

    # --------------------------------------------------- watchdog / recovery
    def start_watchdog(self) -> None:
        """Begin the heartbeat that detects dead/restarted devices.

        Every ``WATCHDOG_INTERVAL`` seconds a tick polls every device: a
        crashed device is noted; a device whose restart counter advanced
        since the last tick restarted wiped (Sec. 4.5) and is reconciled
        against the desired state.  The timer
        handle is cleared by a simulator reset hook, so back-to-back
        trials on one simulator stay independent.
        """
        if self._watchdog_event is not None:
            return
        sim = self.network.sim
        self._seen_restarts = {asn: dev.restarts
                               for asn, dev in self.devices.items()}
        self._watchdog_event = sim.schedule_every(WATCHDOG_INTERVAL,
                                                  self._heartbeat)
        sim.add_reset_hook(self.stop_watchdog)

    def stop_watchdog(self) -> None:
        """Cancel the heartbeat and forget liveness state."""
        if self._watchdog_event is not None:
            self._watchdog_event.cancel()
            self._watchdog_event = None
        self._seen_restarts = {}

    def _heartbeat(self) -> None:
        self.watchdog_ticks += 1
        for asn, device in self.devices.items():
            if device.crashed:
                self.devices_seen_down += 1
                continue
            if device.restarts != self._seen_restarts.get(asn, device.restarts):
                self.reconcile_device(asn)
            self._seen_restarts[asn] = device.restarts

    def reconcile_all(self) -> int:
        """Anti-entropy over every attached (live) device; returns the
        total number of re-installed services."""
        total = 0
        for asn in sorted(self.devices):
            total += self.reconcile_device(asn)
        return total

    # ------------------------------------------------------ crash / restart
    def crash(self) -> None:
        """The NMS process itself dies (an NMS-shard crash, E16e).

        The shard becomes unreachable and all *volatile* state dies with
        the process: watchdog liveness baselines always, and the desired
        state too when the storage backend is process-local
        (``store.durable`` False).  A durable backend — the replicated
        store — keeps the desired state, which is exactly the property the
        shard-crash sweep measures.
        """
        self.nms_crashes += 1
        self.partitioned = True
        self._seen_restarts = {}
        if not self.store.durable:
            self.desired_lost_in_crashes += len(self.desired)
            self.store.clear(self._desired_table)

    def restart(self) -> None:
        """The NMS shard comes back and rejoins the control plane.

        Whatever desired state survived (everything on a durable backend,
        nothing on a process-local one) is immediately replayed against
        the devices — one full anti-entropy pass — and the watchdog
        baselines are re-learned so later crashes are detected normally.
        """
        self.partitioned = False
        self.reconcile_all()
        self._seen_restarts = {asn: dev.restarts
                               for asn, dev in self.devices.items()}

    def reconcile_device(self, asn: int) -> int:
        """Anti-entropy: re-install every desired service missing from the
        device at ``asn``; returns how many services were re-installed."""
        device = self.device_at(asn)
        if device.crashed:
            return 0
        reinstalled = 0
        for user_id in sorted(self.desired):
            want = self.desired[user_id]
            if asn not in want.factories or user_id in device.services:
                continue
            src_factory, dst_factory = want.factories[asn]
            src_graph = src_factory(device.context) if src_factory else None
            dst_graph = dst_factory(device.context) if dst_factory else None
            if src_graph is None and dst_graph is None:
                continue
            instance = device.install(want.user, src_graph=src_graph,
                                      dst_graph=dst_graph)
            instance.active = want.active
            reinstalled += 1
        if reinstalled:
            self.reconciliations += 1
            self.services_reinstalled += reinstalled
        return reinstalled

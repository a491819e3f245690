"""The Traffic Control Service Provider (paper Figs. 3-5, Sec. 5.1).

The TCSP is the single point of registration and orchestration:

* *registration* (Fig. 4): check the network user's identity, verify
  claimed address ownership against the Internet number authority, issue a
  signed ownership certificate;
* *contracts* (Fig. 3): "sets up contracts with many ISPs that
  subsequently attach adaptive devices to some or all of their routers";
* *deployment relay* (Fig. 5): map a user's service request to component
  configurations and instruct the contracted ISPs' NMSes;
* *management relay*: parameter changes, activation, log collection.

"The introduction of a TCSP helps to scale the management of our service.
Only a single service registration is needed instead of a separate one
with each ISP."  Availability is modelled explicitly: every call into the
TCSP goes through a retry-aware :class:`~repro.core.rpc.ControlChannel`
whose endpoint is down while ``reachable`` is False (the TCSP under DDoS)
— after bounded retries the channel raises
:class:`~repro.errors.RetryExhausted` (a
:class:`ControlPlaneUnavailable`), and users fall over to the direct NMS
path automatically — experiment E7.  TCSP -> NMS relays likewise go
through each NMS's own channel: a partitioned NMS is retried, then
skipped and recorded in ``undelivered`` for later resync
(:meth:`Tcsp.resync`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

from repro.errors import (
    ControlPlaneUnavailable,
    DeploymentError,
    RegistrationError,
)
from repro.core.rpc import ControlChannel
from repro.core.certificates import CertificateAuthority, OwnershipCertificate
from repro.core.deployment import DeploymentScope
from repro.core.nms import GraphFactory, IspNms
from repro.core.ownership import NetworkUser, NumberAuthority
from repro.core.storage import (
    InMemoryBackend,
    StorageBackend,
    StoreLog,
    StoreTable,
)
from repro.net.addressing import Prefix

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

__all__ = ["IspContract", "Tcsp", "TcspReplicaSet"]

#: leader-lease timing of :class:`TcspReplicaSet` (simulated seconds)
LEASE_DURATION = 0.5
LEASE_CHECK_INTERVAL = 0.25


@dataclass
class IspContract:
    """A TCSP <-> ISP agreement (Fig. 3): which NMS manages which ASes."""

    isp_id: str
    nms: IspNms
    signed_at: float = 0.0


class Tcsp:
    """The traffic control service provider."""

    def __init__(self, name: str, authority: NumberAuthority,
                 network: "Network", *,
                 store: Optional[StorageBackend] = None,
                 ca: Optional[CertificateAuthority] = None) -> None:
        self.name = name
        self.authority = authority
        self.network = network
        self.ca = ca if ca is not None else CertificateAuthority(issuer=name)
        #: registration / contract / relay state lives on a pluggable
        #: storage backend (DESIGN.md §9) — process-local memory by
        #: default, or a shared replica set for TCSP failover
        self.store: StorageBackend = store if store is not None \
            else InMemoryBackend()
        self.contracts: StoreTable = StoreTable(self.store, "tcsp.contracts")
        self.registered: StoreTable = StoreTable(self.store, "tcsp.registered")
        #: False while the TCSP itself is being DDoSed (Sec. 5.1)
        self.reachable = True
        self.registrations_refused = 0
        #: retry-aware channel all user -> TCSP calls go through; replaces
        #: the old hard `if not reachable: raise` check
        self.channel = ControlChannel(
            f"tcsp:{name}", clock=lambda: network.sim.now,
            down_fn=lambda: not self.reachable,
        )
        #: (isp_id, op) relays that exhausted their retries (NMS partition)
        self.undelivered: StoreLog = StoreLog(self.store, "tcsp.undelivered")
        self.nms_relay_failures = 0
        self._pending_relays: StoreLog = StoreLog(self.store,
                                                  "tcsp.pending_relays")
        #: pending relays dropped at resync because their contract vanished
        self.resync_dropped = 0

    def _call(self, op: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Route one inbound control call through the TCSP's channel."""
        return self.channel.call(op, fn, *args)

    def _relay(self, contract: IspContract, op: str, fn: Callable[..., Any],
               *args: Any) -> Any:
        """Relay one call to an ISP NMS through *its* channel; a partition
        exhausts the retries, is recorded, and returns None."""
        try:
            return contract.nms.channel.call(op, fn, *args)
        except ControlPlaneUnavailable:
            self.nms_relay_failures += 1
            self.undelivered.append((contract.isp_id, op))
            self._pending_relays.append((contract.isp_id, op, fn, args))
            return None

    # ---------------------------------------------------------------- contracts
    def contract_isp(self, isp_id: str, asns: Iterable[int],
                     attach_all: bool = True) -> IspNms:
        """Sign up an ISP: create its NMS and attach adaptive devices."""
        return self._call("contract_isp", self._contract_isp, isp_id,
                          asns, attach_all)

    def _contract_isp(self, isp_id: str, asns: Iterable[int],
                      attach_all: bool) -> IspNms:
        if isp_id in self.contracts:
            raise DeploymentError(f"ISP {isp_id!r} already contracted")
        nms = IspNms(isp_id, self.network, asns, ca=self.ca,
                     store=self.store)
        if attach_all:
            nms.attach_devices()
        # peer all contracted NMSes with each other (config forwarding path)
        for contract in self.contracts.values():
            contract.nms.peers.append(nms)
            nms.peers.append(contract.nms)
        self.contracts[isp_id] = IspContract(isp_id=isp_id, nms=nms,
                                             signed_at=self.network.sim.now)
        return nms

    @property
    def nmses(self) -> list[IspNms]:
        return [c.nms for c in self.contracts.values()]

    def covered_asns(self) -> set[int]:
        """ASes with an attached adaptive device under any contract."""
        out: set[int] = set()
        for nms in self.nmses:
            out |= set(nms.devices)
        return out

    # -------------------------------------------------------------- registration
    def register_user(self, user_id: str, prefixes: Iterable[Prefix],
                      identity_verified: bool = True,
                      validity: float = 365.0 * 86400.0
                      ) -> tuple[NetworkUser, OwnershipCertificate]:
        """The Fig. 4 workflow: verify identity, verify ownership, certify."""
        return self._call("register_user", self._register_user, user_id,
                          prefixes, identity_verified, validity)

    def _register_user(self, user_id: str, prefixes: Iterable[Prefix],
                       identity_verified: bool, validity: float
                       ) -> tuple[NetworkUser, OwnershipCertificate]:
        prefixes = list(prefixes)
        if not prefixes:
            raise RegistrationError("registration needs at least one prefix")
        if not identity_verified:
            self.registrations_refused += 1
            raise RegistrationError(
                f"identity of {user_id!r} could not be verified (CA step)"
            )
        if not self.authority.verify_ownership(user_id, prefixes):
            self.registrations_refused += 1
            raise RegistrationError(
                f"number authority does not list {user_id!r} as holder of "
                f"all of {[str(p) for p in prefixes]}"
            )
        user = NetworkUser(user_id=user_id, prefixes=prefixes)
        cert = self.ca.issue(user_id, prefixes, now=self.network.sim.now,
                             validity=validity)
        self.registered[user_id] = (user, cert)
        return user, cert

    def user(self, user_id: str) -> NetworkUser:
        try:
            return self.registered[user_id][0]
        except KeyError as exc:
            raise RegistrationError(f"user {user_id!r} not registered") from exc

    # --------------------------------------------------------------- deployment
    def deploy_service(self, cert: OwnershipCertificate,
                       scope: DeploymentScope,
                       src_graph_factory: Optional[GraphFactory] = None,
                       dst_graph_factory: Optional[GraphFactory] = None
                       ) -> dict[str, list[int]]:
        """Fig. 5: map the request to components and instruct the ISP NMSes.

        Returns {isp_id: [configured ASes]}.  A partitioned NMS is retried,
        then skipped (recorded in ``undelivered``; :meth:`resync` replays
        once the partition heals).
        """
        return self._call("deploy_service", self._deploy_service, cert,
                          scope, src_graph_factory, dst_graph_factory)

    def _deploy_service(self, cert: OwnershipCertificate,
                        scope: DeploymentScope,
                        src_graph_factory: Optional[GraphFactory],
                        dst_graph_factory: Optional[GraphFactory]
                        ) -> dict[str, list[int]]:
        self.ca.verify(cert, self.network.sim.now)
        if cert.user_id not in self.registered:
            raise RegistrationError(f"user {cert.user_id!r} not registered")
        user = self.registered[cert.user_id][0]
        target = scope.resolve(self.network.topology)
        results: dict[str, list[int]] = {}
        for isp_id, contract in sorted(self.contracts.items()):
            configured = self._relay(
                contract, "deploy", contract.nms.deploy,
                cert, user, target, src_graph_factory, dst_graph_factory,
            )
            if configured:
                results[isp_id] = configured
        return results

    def resync(self, isp_id: Optional[str] = None) -> int:
        """Replay relays that were undelivered (e.g. during an NMS
        partition); returns how many were delivered this time.

        A successfully replayed relay clears its ``undelivered`` ledger
        entry too, so the ledger reports *outstanding* work only.  Pending
        relays whose contract has vanished cannot ever be replayed: they
        are dropped from both ledgers and counted in ``resync_dropped``
        instead of silently disappearing.
        """
        delivered = 0
        remaining: list[tuple] = []
        for entry in self._pending_relays:
            target_id, op, fn, args = entry
            if isp_id is not None and target_id != isp_id:
                remaining.append(entry)
                continue
            contract = self.contracts.get(target_id)
            if contract is None:
                self.resync_dropped += 1
                self.undelivered.remove((target_id, op))
                continue
            try:
                contract.nms.channel.call(op, fn, *args)
                delivered += 1
                self.undelivered.remove((target_id, op))
            except ControlPlaneUnavailable:
                remaining.append(entry)
        self._pending_relays.replace(remaining)
        return delivered

    # --------------------------------------------------------------- management
    def set_active(self, cert: OwnershipCertificate, active: bool) -> int:
        """Relay an activate/deactivate request to all contracted NMSes."""
        return self._call("set_active", self._set_active, cert, active)

    def _set_active(self, cert: OwnershipCertificate, active: bool) -> int:
        touched = 0
        for contract in self.contracts.values():
            result = self._relay(contract, "set_active",
                                 contract.nms.set_active,
                                 cert, cert.user_id, active)
            touched += result or 0
        return touched

    def read_logs(self, cert: OwnershipCertificate) -> list[tuple]:
        """Relay a log-read request to all contracted NMSes."""
        return self._call("read_logs", self._read_logs, cert)

    def _read_logs(self, cert: OwnershipCertificate) -> list[tuple]:
        entries: list[tuple] = []
        for contract in self.contracts.values():
            result = self._relay(contract, "read_logs",
                                 contract.nms.read_logs, cert, cert.user_id)
            entries.extend(result or [])
        return sorted(entries)

    def total_rule_count(self) -> int:
        """Installed components across the whole infrastructure (Sec. 5.3)."""
        return sum(nms.rule_count() for nms in self.nmses)


class TcspReplicaSet:
    """The TCSP run as a replica set: one leader plus warm standbys over a
    shared storage backend (DESIGN.md §9).

    Sec. 5.1's availability scenario is the TCSP itself being DDoSed.  A
    single :class:`Tcsp` instance survives that in *reachability* terms
    only (users fall back to the direct NMS path); the state it holds —
    registrations, contracts, the undelivered-relay ledger — does not.
    Here every replica shares one :class:`~repro.core.storage
    .StorageBackend` and one certificate authority, so a promoted standby
    sees every record the old leader wrote (modulo the backend's own
    replication lag, which anti-entropy repairs).

    Leadership is a *lease* over the simulated clock: while the leader is
    reachable each check tick renews the lease; once the leader is
    unreachable **and** the lease has expired, the first reachable standby
    is promoted (deterministic scan order).  :meth:`start` drives the
    ticks as simulator events; every facade call also runs an
    opportunistic check, so promotion latency is bounded by the lease even
    between ticks.  The facade mirrors the :class:`Tcsp` surface that
    :class:`~repro.core.service.TrafficControlService` and the experiments
    program against, so a replica set drops in wherever a single TCSP was
    used.
    """

    def __init__(self, name: str, authority: NumberAuthority,
                 network: "Network", *,
                 store: Optional[StorageBackend] = None,
                 n_standbys: int = 1) -> None:
        if n_standbys < 0:
            raise DeploymentError(f"negative standby count: {n_standbys}")
        self.name = name
        self.network = network
        self.store: StorageBackend = store if store is not None \
            else InMemoryBackend()
        ca = CertificateAuthority(issuer=name)
        self.replicas = [
            Tcsp(f"{name}#{i}", authority, network, store=self.store, ca=ca)
            for i in range(n_standbys + 1)
        ]
        self.leader_index = 0
        self.lease_expires = network.sim.now + LEASE_DURATION
        self.failovers = 0
        self._tick_event = None

    # ------------------------------------------------------------ leadership
    @property
    def leader(self) -> Tcsp:
        return self.replicas[self.leader_index]

    @property
    def primary(self) -> Tcsp:
        return self.replicas[0]

    def start(self) -> None:
        """Begin the lease renew/promote loop on the simulator."""
        if self._tick_event is not None:
            return
        sim = self.network.sim
        self.lease_expires = sim.now + LEASE_DURATION
        self._tick_event = sim.schedule_every(LEASE_CHECK_INTERVAL,
                                              self._maybe_failover)
        sim.add_reset_hook(self.stop)

    def stop(self) -> None:
        """Cancel the lease loop (simulator reset hook)."""
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def _maybe_failover(self) -> None:
        now = self.network.sim.now
        if self.leader.reachable:
            self.lease_expires = now + LEASE_DURATION
            return
        if now < self.lease_expires:
            return  # the lease must lapse before anyone takes over
        for index, replica in enumerate(self.replicas):
            if index != self.leader_index and replica.reachable:
                self.leader_index = index
                self.failovers += 1
                self.lease_expires = now + LEASE_DURATION
                return

    # ------------------------------------------------- facade (Tcsp surface)
    @property
    def ca(self) -> CertificateAuthority:
        return self.leader.ca

    @property
    def channel(self) -> ControlChannel:
        return self.leader.channel

    @property
    def reachable(self) -> bool:
        return self.leader.reachable

    @reachable.setter
    def reachable(self, value: bool) -> None:
        # an outage strikes the machine currently holding the lease; a
        # restore brings every replica back (the DDoS has subsided)
        if value:
            for replica in self.replicas:
                replica.reachable = True
        else:
            self.leader.reachable = False

    @property
    def contracts(self) -> StoreTable:
        return self.leader.contracts

    @property
    def registered(self) -> StoreTable:
        return self.leader.registered

    @property
    def undelivered(self) -> StoreLog:
        return self.leader.undelivered

    @property
    def nmses(self) -> list[IspNms]:
        return self.leader.nmses

    @property
    def nms_relay_failures(self) -> int:
        return sum(r.nms_relay_failures for r in self.replicas)

    @property
    def resync_dropped(self) -> int:
        return sum(r.resync_dropped for r in self.replicas)

    def contract_isp(self, isp_id: str, asns: Iterable[int],
                     attach_all: bool = True) -> IspNms:
        self._maybe_failover()
        return self.leader.contract_isp(isp_id, asns, attach_all)

    def covered_asns(self) -> set[int]:
        return self.leader.covered_asns()

    def register_user(self, user_id: str, prefixes: Iterable[Prefix],
                      identity_verified: bool = True,
                      validity: float = 365.0 * 86400.0
                      ) -> tuple[NetworkUser, OwnershipCertificate]:
        self._maybe_failover()
        return self.leader.register_user(user_id, prefixes,
                                         identity_verified, validity)

    def user(self, user_id: str) -> NetworkUser:
        self._maybe_failover()
        return self.leader.user(user_id)

    def deploy_service(self, cert: OwnershipCertificate,
                       scope: DeploymentScope,
                       src_graph_factory: Optional[GraphFactory] = None,
                       dst_graph_factory: Optional[GraphFactory] = None
                       ) -> dict[str, list[int]]:
        self._maybe_failover()
        return self.leader.deploy_service(cert, scope, src_graph_factory,
                                          dst_graph_factory)

    def resync(self, isp_id: Optional[str] = None) -> int:
        self._maybe_failover()
        return self.leader.resync(isp_id)

    def set_active(self, cert: OwnershipCertificate, active: bool) -> int:
        self._maybe_failover()
        return self.leader.set_active(cert, active)

    def read_logs(self, cert: OwnershipCertificate) -> list[tuple]:
        self._maybe_failover()
        return self.leader.read_logs(cert)

    def total_rule_count(self) -> int:
        return self.leader.total_rule_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TcspReplicaSet({self.name!r}, replicas="
                f"{len(self.replicas)}, leader={self.leader_index}, "
                f"failovers={self.failovers})")

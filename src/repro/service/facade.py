"""Live service facade over the decision core.

:class:`ServiceFacade` answers the question a live deployment asks on
every request — ``check(src, dst) -> Verdict`` — with exactly the
simulator's semantics: ownership LPM behind the per-flow LRU cache, the
two-stage owner pipeline, and Sec. 4.5 safety containment.  Unowned
traffic takes the fast path (one cache probe, a shared singleton
verdict); owned traffic is materialised as a :class:`Packet`, run
through the installed stage graphs, and answered with a verdict shared
by every check with the same outcome and owners.

:class:`TrafficController` adds the deployment-facing conveniences the
middleware adapters need: a default protected service address, and an
optional :class:`~repro.util.tokenbucket.TokenBucket` admission guard
(the live analogue of the device's rate-limit component).

Metric families (``service.*``) are emitted through the ambient
:mod:`repro.obs` registry, next to the simulator's ``device.*`` ones.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from ipaddress import IPv6Address
from typing import Optional

from repro.core.device import DeviceContext
from repro.core.graph import ComponentGraph
from repro.errors import AddressError, DeploymentError
from repro.core.ownership import NetworkUser, OwnershipRegistry
from repro.net.addressing import IPv4Address, Prefix, _as_int
from repro.net.packet import Packet, Protocol
from repro.net.topology import ASRole
from repro.obs.metrics import declare
from repro.service.clock import Clock, WallClock
from repro.service.core import DecisionCore, FLOW_CACHE_CAPACITY
from repro.util.tokenbucket import TokenBucket

__all__ = ["Verdict", "ServiceFacade", "TrafficController"]

_CHECKS = declare("service.checks", "counter", labels=("verdict",),
                  help="live service checks by verdict (pass | drop)")
_REDIRECTED = declare("service.redirected", "counter",
                      help="checks that entered the two-stage pipeline")
_DROPPED = declare("service.dropped", "counter",
                   help="checks dropped by a processing stage")
_SAFETY_DISABLES = declare("service.safety_disables", "counter",
                           help="live services disabled for safety violations")
_CACHE_HITS = declare("service.cache_hits", "counter",
                      help="checks served from the per-flow owner cache")
_CACHE_MISSES = declare("service.cache_misses", "counter",
                        help="checks resolved via the ownership LPM slow path")
_ADMISSION_REJECTED = declare("service.admission_rejected", "counter",
                              help="requests refused by the admission "
                                   "token bucket before any ownership check")
_POLICY_SWAPS = declare("service.policy.swaps", "counter",
                        help="atomic hot-swaps of a live service's "
                             "stage graphs")
_POLICY_GENERATION = declare("service.policy.generation", "gauge",
                             help="decision-core policy generation (bumped "
                                  "by install, uninstall, activation flips)")
_POLICY_COMPILE_FAILURES = declare("service.policy.compile_failures", "counter",
                                   help="hot-swap attempts rejected by the "
                                        "policy compiler (old policy kept)")


@dataclass(frozen=True)
class Verdict:
    """The outcome of one live check.

    (Distinct from the per-component :class:`repro.core.components.Verdict`
    enum: this is the end-to-end answer for one request/flow.)
    """

    allowed: bool
    #: True when the flow was owned by a subscriber with an active service
    #: here and therefore ran the two-stage pipeline; False means it took
    #: the direct path (or was refused at admission).
    redirected: bool
    #: "direct" | "processed" | "filtered" | "admission"
    reason: str = ""
    src_owner: Optional[str] = None
    dst_owner: Optional[str] = None

    @property
    def action(self) -> str:
        return "pass" if self.allowed else "drop"


#: Shared fast-path verdicts (the overwhelmingly common outcomes — "Most
#: traffic will use the direct path through the router", Sec. 4.1).
PASS_DIRECT = Verdict(allowed=True, redirected=False, reason="direct")
DROP_ADMISSION = Verdict(allowed=False, redirected=False, reason="admission")

#: A facade fronts one site: stub role, no local prefix bias (components
#: that scope to the local prefix see the catch-all).
_SITE = DeviceContext(asn=0, role=ASRole.STUB, local_prefix=Prefix(0, 0))


class ServiceFacade:
    """``check(src, dst, now) -> Verdict`` over a :class:`DecisionCore`.

    ``clock`` supplies timestamps when the caller passes no explicit
    ``now`` — :class:`~repro.service.clock.WallClock` by default,
    ``sim.clock`` to drive the same facade from simulated time.
    """

    def __init__(self, registry: Optional[OwnershipRegistry] = None, *,
                 clock: Optional[Clock] = None) -> None:
        self.registry = registry if registry is not None else OwnershipRegistry()
        self.clock: Clock = clock if clock is not None else WallClock()
        self._m_pass = _CHECKS.labelled(verdict="pass")
        self._m_drop = _CHECKS.labelled(verdict="drop")
        self._m_redirected = _REDIRECTED.labelled()
        self._m_policy_swaps = _POLICY_SWAPS.labelled()
        self._m_policy_generation = _POLICY_GENERATION.labelled()
        self._m_policy_compile_failures = _POLICY_COMPILE_FAILURES.labelled()
        #: one shared redirected verdict per (allowed, src id, dst id),
        #: like PASS_DIRECT for the direct path; cleared when it fills
        self._verdicts: dict[tuple, Verdict] = {}
        self.core = DecisionCore(
            _SITE, self.registry, strict=False,
            counters={
                "dropped": _DROPPED.labelled(),
                "safety_disables": _SAFETY_DISABLES.labelled(),
                "flow_cache_hits": _CACHE_HITS.labelled(),
                "flow_cache_misses": _CACHE_MISSES.labelled(),
            })

    # ------------------------------------------------------------- management
    def subscribe(self, user: NetworkUser,
                  src_graph: Optional[ComponentGraph] = None,
                  dst_graph: Optional[ComponentGraph] = None):
        """Register the user's prefixes (if any is not yet theirs) and
        install their graphs."""
        owners = (self.registry.owner_of(prefix.first)
                  for prefix in user.prefixes)
        if any(owner is None or owner.user_id != user.user_id
               for owner in owners):
            self.registry.register(user)
        return self.install(user, src_graph, dst_graph)

    def install(self, user: NetworkUser,
                src_graph: Optional[ComponentGraph] = None,
                dst_graph: Optional[ComponentGraph] = None):
        instance = self.core.install(user, src_graph, dst_graph)
        self._m_policy_generation.value = self.core.generation
        return instance

    def uninstall(self, user_id: str) -> bool:
        removed = self.core.uninstall(user_id)
        self._m_policy_generation.value = self.core.generation
        return removed

    def set_active(self, user_id: str, active: bool) -> None:
        self.core.set_active(user_id, active)
        self._m_policy_generation.value = self.core.generation

    def swap_policy(self, user_id: str,
                    src_graph: Optional[ComponentGraph] = None,
                    dst_graph: Optional[ComponentGraph] = None) -> int:
        """Atomically replace a live service's stage graphs.

        :meth:`DecisionCore.install` compiles (with Sec. 4.5 vetting) every
        non-None graph *before* anything is mutated, so a rejected swap
        leaves the old policy fully active — the compiler is the
        transaction guard.  On success the policy generation advances and
        the next check runs the new programs; the flow cache is kept (its
        entries hold no program).  The new generation is returned so
        callers can verify the swap took effect.
        """
        if src_graph is None and dst_graph is None:
            raise DeploymentError(
                f"user {user_id!r}: nothing to swap")
        core = self.core
        instance = core.services.get(user_id)
        if instance is None:
            raise DeploymentError(f"no service for user {user_id!r} here")
        try:
            core.install(instance.user, src_graph, dst_graph)
        except Exception:
            self._m_policy_compile_failures.value += 1
            raise
        self._m_policy_swaps.value += 1
        self._m_policy_generation.value = core.generation
        return core.generation

    # ------------------------------------------------------------------ check
    def check(self, src, dst, *, proto: Protocol = Protocol.TCP,
              sport: int = 0, dport: int = 0, size: int = 512,
              now: Optional[float] = None) -> Verdict:
        """The live redirect decision + pipeline for one flow.

        ``src``/``dst`` accept ints, :class:`IPv4Address`, or dotted
        strings, which key the flow cache as given: a cached flow parses
        nothing, since its entry holds both addresses as ints.  A non-IPv4
        address raises ``AddressError``.
        """
        core = self.core
        entry = core.flow_entry(src, dst, proto, dport)
        if not entry[2]:
            self._m_pass.value += 1
            return PASS_DIRECT
        src_owner, dst_owner = entry[0], entry[1]
        self._m_redirected.value += 1
        if now is None:
            now = self.clock.now()
        packet = Packet(IPv4Address(entry[3]), IPv4Address(entry[4]),
                        proto=proto, size=size, sport=sport, dport=dport)
        allowed = core.run_stages(packet, src_owner, dst_owner, now,
                                  None) is not None
        if allowed:
            self._m_pass.value += 1
        else:
            self._m_drop.value += 1
        key = (allowed,
               None if src_owner is None else src_owner.user_id,
               None if dst_owner is None else dst_owner.user_id)
        verdicts = self._verdicts
        verdict = verdicts.get(key)
        if verdict is None:
            if len(verdicts) >= FLOW_CACHE_CAPACITY:
                verdicts.clear()
            verdict = verdicts[key] = Verdict(
                allowed, True, "processed" if allowed else "filtered",
                key[1], key[2])
        return verdict


class TrafficController:
    """Framework-free embedding: one ``allow(client)`` call per request.

    Wraps a :class:`ServiceFacade` with the protected service's address
    (the ``dst`` of every check) and an optional admission
    :class:`TokenBucket` consulted *before* any ownership work — the
    cheap front door that bounds total check rate under flood.
    """

    def __init__(self, facade: ServiceFacade, service_address, *,
                 proto: Protocol = Protocol.TCP, dport: int = 80,
                 admission: Optional[TokenBucket] = None) -> None:
        self.facade = facade
        self.service_address = _as_int(service_address)
        self.proto = proto
        self.dport = dport
        self.admission = admission
        self._m_admission_rejected = _ADMISSION_REJECTED.labelled()

    def allow(self, client, *, dst=None, cost: float = 1.0,
              now: Optional[float] = None) -> Verdict:
        """Admission bucket first, then the ownership/pipeline check.

        An IPv4-mapped ``client`` (``::ffff:a.b.c.d``) is checked as its
        IPv4 address; any other non-IPv4 client passes directly
        (:data:`PASS_DIRECT`).
        """
        if now is None:
            now = self.facade.clock.now()
        if self.admission is not None and not self.admission.admit(now, cost=cost):
            self._m_admission_rejected.value += 1
            return DROP_ADMISSION
        if type(client) is str and ":" in client:
            # a dual-stack listener reports IPv4 peers in the mapped form
            with suppress(ValueError):  # not IPv6: check() rejects it below
                client = IPv6Address(client).ipv4_mapped or client
        dst_addr = self.service_address if dst is None else dst
        try:
            return self.facade.check(client, dst_addr, proto=self.proto,
                                     dport=self.dport, now=now)
        except AddressError:
            # an IPv6, unix-socket or empty peer: no registered IPv4
            # prefix can own it, so it takes the direct path
            return PASS_DIRECT

    def swap_policy(self, user_id: str,
                    src_graph: Optional[ComponentGraph] = None,
                    dst_graph: Optional[ComponentGraph] = None) -> int:
        """Delegate an atomic policy hot-swap to the wrapped facade."""
        return self.facade.swap_policy(user_id, src_graph=src_graph,
                                       dst_graph=dst_graph)

"""The engine-agnostic TCS decision core (carved out of the device).

:class:`DecisionCore` owns the paper's per-packet decision path —
ownership-LPM redirect decision behind a per-flow LRU cache, the
source-owner/destination-owner two-stage pipeline, and the Sec. 4.5
safety containment that disables a violating service on the spot.  A
check has one implementation: :meth:`~DecisionCore.wants`, then
:meth:`~DecisionCore.process`, which runs each stage's
:class:`~repro.policy.compiler.CompiledPolicy`.  :meth:`~DecisionCore.install`
compiles every stage graph once, vetting it (Sec. 4.5), and the core runs
the program it vetted: a graph mutated after install changes nothing until
it is installed again.

Both consumers share it byte-for-byte:

* the simulator's :class:`~repro.core.device.AdaptiveDevice` delegates
  its decision path here (and injects its ``device.*`` registry
  counters, so experiment tables are unchanged by the extraction),
* the live :class:`~repro.service.facade.ServiceFacade` drives the same
  core from wall-clock (or injected) time and emits ``service.*``
  counters instead.

Counters are injected as anything with a ``value`` attribute (registry
instruments or standalone :class:`~repro.obs.metrics.Counter` objects), so
the core itself declares no metric families and can run registry-free.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, TYPE_CHECKING

from repro.errors import DeploymentError, SafetyViolation
from repro.core.components import ComponentContext, Verdict
from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser, OwnershipRegistry
from repro.net.addressing import IPv4Address, _as_int
from repro.obs.metrics import Counter
from repro.policy.compiler import compile_policy
from repro.net.packet import Packet, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.device import DeviceContext, ServiceInstance
    from repro.policy.compiler import CompiledPolicy

__all__ = ["DecisionCore", "FLOW_CACHE_CAPACITY"]

#: Default per-core LRU flow-cache capacity (distinct 4-tuples).
FLOW_CACHE_CAPACITY = 4096

#: The counter slots a core accounts into (see ``counters=`` below).
COUNTER_NAMES = ("redirected", "dropped", "safety_disables",
                 "flow_cache_hits", "flow_cache_misses")


class DecisionCore:
    """Redirect decision + two-stage pipeline, independent of any engine.

    ``context`` is a :class:`~repro.core.device.DeviceContext` (where the
    decision point sits); ``services`` is the user-id ->
    :class:`~repro.core.device.ServiceInstance` map (the owning device
    shares it by reference); ``counters`` maps the names in
    :data:`COUNTER_NAMES` to objects with a ``value`` attribute —
    unnamed slots get private registry-free
    :class:`~repro.obs.metrics.Counter` objects.
    """

    __slots__ = ("context", "registry", "services", "strict", "stage_order",
                 "flow_cache", "flow_cache_capacity", "_flow_cache_version",
                 "generation",
                 "m_redirected", "m_dropped", "m_safety_disables",
                 "m_fc_hits", "m_fc_misses")

    def __init__(self, context: "DeviceContext", registry: OwnershipRegistry,
                 *, strict: bool = True,
                 stage_order: str = "src-first",
                 flow_cache_capacity: int = FLOW_CACHE_CAPACITY,
                 counters: Optional[dict] = None) -> None:
        if stage_order not in ("src-first", "dst-first"):
            raise DeploymentError(f"unknown stage order {stage_order!r}")
        self.context = context
        self.registry = registry
        self.services: dict[str, "ServiceInstance"] = {}
        #: strict=True re-raises safety violations (library/API use);
        #: strict=False contains them (live path: restore the packet,
        #: disable the service, keep forwarding).
        self.strict = strict
        #: the paper mandates source stage before destination stage
        #: ("first sending ... and then receiving", Sec. 4.1); "dst-first"
        #: exists only for the E13 ablation.
        self.stage_order = stage_order
        #: per-flow fast path: 4-tuple -> (src_owner, dst_owner,
        #: redirect?, src int, dst int), so repeat packets of a flow skip
        #: both ownership LPM walks, the service-membership check and
        #: address parsing.
        self.flow_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.flow_cache_capacity = flow_cache_capacity
        self._flow_cache_version = registry.version
        #: policy generation: bumped on every install (hot swaps included),
        #: uninstall and activation flip, so observers can tag cached
        #: decisions and verify a swap took effect atomically
        self.generation = 0
        c = counters or {}
        self.m_redirected = c.get("redirected") or Counter()
        self.m_dropped = c.get("dropped") or Counter()
        self.m_safety_disables = c.get("safety_disables") or Counter()
        self.m_fc_hits = c.get("flow_cache_hits") or Counter()
        self.m_fc_misses = c.get("flow_cache_misses") or Counter()

    # -------------------------------------------------------------- management
    def install(self, user: NetworkUser,
                src_graph: Optional[ComponentGraph] = None,
                dst_graph: Optional[ComponentGraph] = None
                ) -> "ServiceInstance":
        """Compile (with Sec. 4.5 vetting) and install a user's stage graphs.

        Every graph compiles before anything is mutated, so a rejected
        graph leaves the installed policy untouched.  A new service flushes
        the flow cache; a hot swap onto an existing one keeps it, since
        entries hold no program (:meth:`_stages` reads them per check).
        """
        from repro.core.device import ServiceInstance

        if src_graph is None and dst_graph is None:
            raise DeploymentError(f"user {user.user_id!r}: nothing to install")
        src_program, dst_program = (
            None if graph is None else compile_policy(graph)
            for graph in (src_graph, dst_graph))
        instance = self.services.get(user.user_id)
        if instance is None:
            instance = self.services[user.user_id] = ServiceInstance(user=user)
            self.invalidate()
        else:
            self.generation += 1
        if src_program is not None:
            instance.src_program = src_program
        if dst_program is not None:
            instance.dst_program = dst_program
        instance.disabled_for_violation = False
        return instance

    def uninstall(self, user_id: str) -> bool:
        removed = self.services.pop(user_id, None) is not None
        if removed:
            self.invalidate()
        return removed

    def set_active(self, user_id: str, active: bool) -> None:
        try:
            instance = self.services[user_id]
        except KeyError as exc:
            raise DeploymentError(f"no service for user {user_id!r} here") from exc
        # cached redirect decisions embed the active flag — drop them on a
        # flip, or a deactivated service's flows would keep being redirected
        # (and a re-activated one's would keep bypassing the pipeline)
        if instance.active != active:
            instance.active = active
            self.invalidate()

    def rule_count(self) -> int:
        """Total installed components — the Sec. 5.3 scaling quantity."""
        return sum(s.rule_count() for s in self.services.values())

    # -------------------------------------------------------------- fast path
    def invalidate(self) -> None:
        """Drop every cached per-flow decision and advance the policy
        generation: for a change to which flows are redirected."""
        self.flow_cache.clear()
        self.generation += 1

    def synced_cache(self) -> "OrderedDict[tuple, tuple]":
        """The flow cache, cleared first if the ownership registry changed
        since the last lookup (detected via its version counter)."""
        cache = self.flow_cache
        if self._flow_cache_version != self.registry.version:
            cache.clear()
            self._flow_cache_version = self.registry.version
        return cache

    def flow_entry(self, src, dst, proto: Protocol, dport: int) -> tuple:
        """Resolve ``(src_owner, dst_owner, redirect?, src, dst)`` for one
        flow 4-tuple (addresses keyed as given, int or dotted quad, and
        parsed to the two ints only on a miss), caching the answer.

        Entries survive until the LRU evicts them, :meth:`invalidate` runs,
        or the ownership registry changes.
        """
        cache = self.synced_cache()
        key = (src, dst, proto, dport)
        entry = cache.get(key)
        if entry is not None:
            self.m_fc_hits.value += 1
            cache.move_to_end(key)
            return entry
        return self.flow_miss(key)

    def flow_miss(self, key: tuple) -> tuple:
        """Slow path: parse each address once and resolve its owner via
        the registry (a bad address raises before anything is counted or
        cached), then cache the result."""
        src, dst = key[0], key[1]
        if type(src) is not int:
            src = _as_int(src)
        if type(dst) is not int:
            dst = _as_int(dst)
        registry = self.registry
        src_owner = registry.owner_of(src)
        dst_owner = registry.owner_of(dst)
        self.m_fc_misses.value += 1
        services = self.services
        src_inst = None if src_owner is None else services.get(src_owner.user_id)
        dst_inst = None if dst_owner is None else services.get(dst_owner.user_id)
        # only *active* services claim the flow; whatever changes that
        # invalidates the cache so entries never go stale
        wants = ((src_inst is not None and src_inst.active)
                 or (dst_inst is not None and dst_inst.active))
        entry = (src_owner, dst_owner, wants, src, dst)
        cache = self.flow_cache
        cache[key] = entry
        if len(cache) > self.flow_cache_capacity:
            cache.popitem(last=False)
        return entry

    def wants(self, packet: Packet) -> bool:
        """Redirect decision: does a registered user with an active service
        here own this packet?  Everything else takes the direct path.

        Mirrors :meth:`flow_entry` inline — this is the single hottest
        call in the simulator, so it spends no extra stack frame on a hit.
        """
        cache = self.flow_cache
        if self._flow_cache_version != self.registry.version:
            cache.clear()
            self._flow_cache_version = self.registry.version
        key = (packet.src.value, packet.dst.value, packet.proto, packet.dport)
        entry = cache.get(key)
        if entry is not None:
            self.m_fc_hits.value += 1
            cache.move_to_end(key)
            return entry[2]
        return self.flow_miss(key)[2]

    # --------------------------------------------------------------- pipeline
    def process(self, packet: Packet, now: float,
                ingress_asn: Optional[int]) -> Optional[Packet]:
        """Run the two processing stages; None means the packet was dropped."""
        self.m_redirected.value += 1
        entry = self.flow_entry(
            packet.src.value, packet.dst.value, packet.proto, packet.dport)
        return self.run_stages(packet, entry[0], entry[1], now, ingress_asn)

    def run_stages(self, packet: Packet, src_owner: Optional[NetworkUser],
                   dst_owner: Optional[NetworkUser], now: float,
                   ingress_asn: Optional[int]) -> Optional[Packet]:
        """The two-stage loop with owners already resolved (shared by
        :meth:`process` and the live facade)."""
        for owner, stage, instance, program in self._stages(src_owner,
                                                            dst_owner):
            packet_after = self._run_stage(
                packet, instance, program,
                self._context(owner, stage, now, ingress_asn))
            if packet_after is None:
                self.m_dropped.value += 1
                return None
            packet = packet_after
        return packet

    def _stages(self, src_owner: Optional[NetworkUser],
                dst_owner: Optional[NetworkUser]) -> Iterator[tuple]:
        """Yield ``(owner, stage, instance, program)`` for every stage
        program that runs, in stage order.

        Each stage is checked only when the caller reaches it, so a
        service disabled by a violation in the first stage does not run
        in the second.
        """
        stages = [(src_owner, "source"), (dst_owner, "dest")]
        if self.stage_order == "dst-first":  # E13 ablation only
            stages.reverse()
        for owner, stage in stages:
            if owner is None:
                continue
            instance = self.services.get(owner.user_id)
            if (instance is None or not instance.active
                    or instance.disabled_for_violation):
                continue
            program = (instance.src_program if stage == "source"
                       else instance.dst_program)
            if program is not None:
                yield owner, stage, instance, program

    def _context(self, owner: NetworkUser, stage: str, now: float,
                 ingress_asn: Optional[int]) -> ComponentContext:
        """The Sec. 4.2 contextual information one stage's graph sees."""
        context = self.context
        # positional (keywords cost a dict per owned check), in field order
        return ComponentContext(now, context.asn, context.is_transit,
                                context.local_prefix, stage, owner,
                                ingress_asn, ingress_asn is None)

    def _run_stage(self, packet: Packet, instance: "ServiceInstance",
                   program: "CompiledPolicy",
                   ctx: ComponentContext) -> Optional[Packet]:
        before = instance.monitor.note_in(packet)
        verdict = program.process(packet, ctx)
        result = packet if verdict is Verdict.PASS else None
        try:
            instance.monitor.check(before, result, program.graph.name)
        except SafetyViolation:
            # Sec. 4.5: contain the misbehaving service immediately.
            instance.disabled_for_violation = True
            self.m_safety_disables.value += 1
            if self.strict:
                raise
            # fail-safe containment: undo the forbidden mutations and let
            # the packet continue on the normal path
            packet.src = IPv4Address(before.src)
            packet.dst = IPv4Address(before.dst)
            packet.ttl = before.ttl
            packet.size = before.size
            return packet
        return result

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
from typing import Optional, TYPE_CHECKING

from repro.errors import DeploymentError, SafetyViolation
from repro.core.components import PASS, ComponentContext
from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser, OwnershipRegistry
from repro.net.addressing import IPv4Address, _as_int
from repro.obs.metrics import Counter
from repro.policy.compiler import compile_policy
from repro.net.packet import Packet, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.device import DeviceContext, ServiceInstance

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
                 "generation", "_site", "_stage_is_source",
                 "_claimed", "_claimed_entry", "_records",
                 "m_redirected", "m_dropped", "m_safety_disables",
                 "m_fc_hits", "m_fc_misses")

    def __init__(self, context: "DeviceContext", registry: OwnershipRegistry,
                 *, strict: bool = True,
                 stage_order: str = "src-first",
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
        #: per stage, in run order: is it the source stage?
        self._stage_is_source = ((False, True) if stage_order == "dst-first"
                                 else (True, False))
        #: the context fields every stage sees (DeviceContext is frozen)
        self._site = (context.asn, context.is_transit, context.local_prefix)
        #: per-flow fast path: 4-tuple -> [src_owner, dst_owner, False],
        #: or [src_owner, dst_owner, True, src address, dst address, replay
        #: record or None] for a redirected flow, so repeat packets of a
        #: flow skip both ownership LPM walks, the service-membership check
        #: and address parsing, and a live check builds no address object.
        self.flow_cache: "OrderedDict[tuple, list]" = OrderedDict()
        self.flow_cache_capacity = FLOW_CACHE_CAPACITY
        self._flow_cache_version = registry.version
        #: the packet :meth:`wants` last redirected, and its entry, for
        #: :meth:`process` to take instead of probing again
        self._claimed: Optional[Packet] = None
        self._claimed_entry: list = []
        #: replay records by content, shared by flows; cleared by install
        self._records: dict[tuple, tuple] = {}
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
        a replay record checks the programs it ran (:meth:`replay`).
        """
        from repro.core.device import ServiceInstance

        if src_graph is None and dst_graph is None:
            raise DeploymentError(f"user {user.user_id!r}: nothing to install")
        src_program, dst_program = (
            None if graph is None else compile_policy(graph)
            for graph in (src_graph, dst_graph))
        self._records.clear()
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

    def flow_entry(self, src, dst, proto: Protocol, dport: int) -> list:
        """Resolve ``[src_owner, dst_owner, redirect?]`` for one flow
        4-tuple, plus its two :class:`IPv4Address` objects and its replay
        slot when redirected (addresses keyed as given, int or dotted quad,
        and parsed only on a miss), caching the answer.

        Entries survive until the LRU evicts them, :meth:`invalidate` runs,
        or the ownership registry changes (detected via its version
        counter, which clears the cache before the probe).
        """
        cache = self.flow_cache
        if self._flow_cache_version != self.registry.version:
            cache.clear()
            self._flow_cache_version = self.registry.version
        key = (src, dst, proto, dport)
        entry = cache.get(key)
        if entry is not None:
            self.m_fc_hits.value += 1
            cache.move_to_end(key)
            return entry
        return self.flow_miss(key)

    def flow_miss(self, key: tuple, packet: Optional[Packet] = None) -> list:
        """Slow path: parse each address once and resolve its owner via
        the registry (a bad address raises before anything is counted or
        cached), then cache the result.

        Only a redirected entry holds the flow's two addresses: the
        ``packet``'s own objects when one is given, else built here, once
        per flow.
        """
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
        entry: list
        if ((src_inst is not None and src_inst.active)
                or (dst_inst is not None and dst_inst.active)):
            if packet is not None:
                entry = [src_owner, dst_owner, True, packet.src, packet.dst,
                         None]
            else:
                entry = [src_owner, dst_owner, True,
                         IPv4Address(src), IPv4Address(dst), None]
        else:
            entry = [src_owner, dst_owner, False]
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
        A redirected packet's entry is handed to :meth:`process`, so the
        decision probes the cache once.
        """
        cache = self.flow_cache
        if self._flow_cache_version != self.registry.version:
            cache.clear()
            self._flow_cache_version = self.registry.version
        key = (packet.src.value, packet.dst.value, packet.proto, packet.dport)
        entry = cache.get(key)
        if entry is None:
            entry = self.flow_miss(key, packet)
        else:
            self.m_fc_hits.value += 1
            cache.move_to_end(key)
        if entry[2]:
            self._claimed, self._claimed_entry = packet, entry
            return True
        return False

    # --------------------------------------------------------------- pipeline
    def process(self, packet: Packet, now: float,
                ingress_asn: Optional[int]) -> Optional[Packet]:
        """Run the two processing stages; None means the packet was dropped.

        Takes the owners from the entry :meth:`wants` handed over for this
        packet, and probes the flow cache only when there is none.
        """
        self.m_redirected.value += 1
        if packet is self._claimed:
            entry = self._claimed_entry
            self._claimed = None
        else:
            entry = self.flow_entry(
                packet.src.value, packet.dst.value, packet.proto, packet.dport)
        if not entry[2]:  # no active service here owns the flow
            return packet
        passed = self.replay(entry, packet.size)
        if passed is not None:
            return packet if passed else None
        return self.run_stages(packet, entry, now, ingress_asn)

    def replay(self, entry: list, size: int) -> Optional[bool]:
        """Bump the counters and tally the monitors of ``entry``'s recorded
        :meth:`run_stages` for a ``size``-byte packet; return if it passed,
        or None (no record, or a recorded service was disabled or swapped)."""
        record = entry[5]
        if record is None:
            return None
        stages, counters, tallies, passed = record
        for instance, source, program in stages:
            if instance.disabled_for_violation or program is not (
                    instance.src_program if source else instance.dst_program):
                return None
        for counter in counters:
            counter.value += 1
        for monitor, out in tallies:
            monitor.packets_in += 1
            monitor.bytes_in += size
            if out:
                monitor.packets_out += 1
                monitor.bytes_out += size
        return passed

    def run_stages(self, packet: Packet, entry: list, now: float,
                   ingress_asn: Optional[int]) -> Optional[Packet]:
        """The two-stage loop for a redirected cache ``entry``'s flow
        (shared by :meth:`process` and the live facade).

        Each stage is checked only when the loop reaches it, so a service
        disabled by a violation in the first stage does not run in the
        second.  Each stage runs under its service's Sec. 4.5 monitor.
        The entry records the run for :meth:`replay` when every program run
        is flow-invariant, no service met was disabled and no monitor raised.
        """
        services = self.services
        asn, is_transit, local_prefix = self._site
        # the replay record: stages met, counters bumped, monitors to tally
        stages: Optional[list] = []
        counters: list = []
        tallies: list = []
        result: Optional[Packet] = packet
        for source in self._stage_is_source:
            owner = entry[0] if source else entry[1]
            if owner is None:
                continue
            instance = services.get(owner.user_id)
            if instance is None or not instance.active:
                continue
            if instance.disabled_for_violation:
                stages = None
                continue
            program = instance.src_program if source else instance.dst_program
            if program is not None and not program.flow_invariant:
                stages = None
            elif stages is not None:
                stages.append((instance, source, program))
            if program is None:
                continue
            # the Sec. 4.5 fields as the stage receives them
            src, dst = packet.src.value, packet.dst.value
            ttl, size = packet.ttl, packet.size
            # the Sec. 4.2 context, positional (keywords cost a dict per
            # owned check), in field order
            verdict = program.process(packet, ComponentContext(
                now, asn, is_transit, local_prefix,
                "source" if source else "dest", owner,
                ingress_asn, ingress_asn is None),
                None if stages is None else counters)
            result = packet if verdict is PASS else None
            try:
                instance.monitor.check(src, dst, ttl, size, result,
                                       program.graph.name)
            except SafetyViolation:
                # Sec. 4.5: contain the misbehaving service immediately.
                stages = None
                instance.disabled_for_violation = True
                self.m_safety_disables.value += 1
                if self.strict:
                    raise
                # fail-safe containment: undo the forbidden mutations and
                # let the packet continue on the normal path
                packet.src = IPv4Address(src)
                packet.dst = IPv4Address(dst)
                packet.ttl = ttl
                packet.size = size
                continue
            tallies.append((instance.monitor, result is not None))
            if result is None:
                self.m_dropped.value += 1
                counters.append(self.m_dropped)
                break
        if stages is not None:
            record = (tuple(stages), tuple(counters), tuple(tallies),
                      result is not None)
            entry[5] = self._records.setdefault(record, record)
        return result

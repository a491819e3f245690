"""The facade's management lifecycle against a plain-dict model.

A hypothesis state machine subscribes, uninstalls, swaps, (de)activates
and checks in any order.  The model keeps each user's registered prefixes
and installed stage graphs in dicts; every verdict must equal the one
:func:`tests.policy.test_compiler.reference_walk` gives over the model's
graphs, so a flow-cache entry left stale by a swap, an uninstall or a
deactivation fails the run.  CI draws more cases with
``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from typing import Optional

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import ComponentGraph, NetworkUser
from repro.core.components import (
    ComponentContext,
    HeaderFilter,
    HeaderMatch,
    PrefixBlacklist,
    Verdict as StageVerdict,
)
from repro.errors import DeploymentError
from repro.net import IPv4Address, Prefix, Protocol
from repro.net.packet import Packet
from repro.service import ManualClock, ServiceFacade, TrafficController
from repro.service.facade import PASS_DIRECT, Verdict
from tests.policy.test_compiler import reference_walk

#: each user's candidate prefixes; 10.1.5.0/24 sits inside 10.1.0.0/16
#: inside 10.0.0.0/8, so which one owns an address depends on the history
PREFIXES = {
    "u0": ("10.0.0.0/8", "20.0.0.0/16"),
    "u1": ("10.1.0.0/16", "10.2.0.0/16"),
    "u2": ("10.1.5.0/24", "30.0.0.0/8"),
}
USERS = tuple(PREFIXES)
ADDRESSES = ("10.1.5.7", "10.1.9.9", "10.2.3.4", "10.200.0.1", "20.0.1.1",
             "30.4.0.1", "40.0.0.1", "203.0.113.9", "198.51.100.7")
#: the first and last address of every candidate prefix, and their
#: outside neighbours, for the registry invariant
EDGES = tuple(str(IPv4Address(a)) for prefixes in PREFIXES.values()
              for p in map(Prefix.parse, prefixes)
              for a in (int(p.first) - 1, int(p.first), int(p.last),
                        int(p.last) + 1))
PROTOS = (Protocol.TCP, Protocol.UDP)
DPORTS = (7, 80)

#: stage graphs as tuples of rules; the model builds its own copy
RULES = {
    "udp": lambda: HeaderFilter("udp", HeaderMatch(proto=Protocol.UDP)),
    "dport7": lambda: HeaderFilter("dport7", HeaderMatch(dport=7)),
    "bl-doc": lambda: PrefixBlacklist("bl-doc", [Prefix.parse("203.0.113.0/24")]),
    "bl-10.1": lambda: PrefixBlacklist("bl-10.1", [Prefix.parse("10.1.0.0/16")]),
}
#: how a check passes its addresses ("mapped": ``::ffff:a.b.c.d`` through
#: a TrafficController)
FORMS = st.sampled_from(("int", "str", "mixed", "mapped"))
specs = st.lists(st.sampled_from(sorted(RULES)), min_size=1, max_size=2,
                 unique=True).map(tuple)
maybe_specs = st.none() | specs


def build(spec: Optional[tuple]) -> Optional[ComponentGraph]:
    if spec is None:
        return None
    graph = ComponentGraph("-".join(spec))
    graph.chain(*(RULES[name]() for name in spec))
    return graph


CONTEXT = dict(asn=0, is_transit=False, local_prefix=Prefix(0, 0),
               ingress_asn=None, local_origin=True)


class FacadeLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = ManualClock()
        self.facade = ServiceFacade(clock=self.clock)
        #: user id -> registered prefixes
        self.registered: dict[str, set[Prefix]] = {}
        #: user id -> {"active": bool, "source": graph, "dest": graph}
        self.services: dict[str, dict] = {}
        #: flows checked so far, with the form of their last check; every
        #: management call re-checks them, mostly as cache hits
        self.seen: dict[tuple, str] = {}

    # ----------------------------------------------------------- model
    def owner(self, addr: int) -> Optional[str]:
        best = None
        for uid, prefixes in self.registered.items():
            for prefix in prefixes:
                if prefix.contains(addr) and (best is None
                                              or prefix.length > best[0]):
                    best = (prefix.length, uid)
        return None if best is None else best[1]

    def expected(self, src: int, dst: int, proto, dport: int) -> Verdict:
        owners = {"source": self.owner(src), "dest": self.owner(dst)}
        live = {stage: self.services.get(uid) for stage, uid in owners.items()
                if uid is not None}
        live = {stage: svc for stage, svc in live.items()
                if svc is not None and svc["active"]}
        if not live:
            return PASS_DIRECT
        packet = Packet(IPv4Address(src), IPv4Address(dst), proto=proto,
                        dport=dport)
        allowed = True
        for stage, svc in live.items():
            graph = svc[stage]
            if graph is None:
                continue
            owner = NetworkUser(owners[stage], prefixes=[])
            ctx = ComponentContext(now=self.clock.now(), stage=stage,
                                   owner=owner, **CONTEXT)
            if reference_walk(graph, packet, ctx) is StageVerdict.DROP:
                allowed = False
                break
        return Verdict(allowed, True, "processed" if allowed else "filtered",
                       owners["source"], owners["dest"])

    def install(self, uid: str, src: Optional[tuple], dst: Optional[tuple]) -> None:
        svc = self.services.setdefault(
            uid, {"active": True, "source": None, "dest": None})
        for stage, spec in (("source", src), ("dest", dst)):
            if spec is not None:
                svc[stage] = build(spec)

    # ----------------------------------------------------------- rules
    @rule(uid=st.sampled_from(USERS), data=st.data(),
          src=maybe_specs, dst=maybe_specs)
    def subscribe(self, uid, data, src, dst):
        if src is None and dst is None:
            dst = ("udp",)
        picked = data.draw(st.lists(st.sampled_from(PREFIXES[uid]),
                                    min_size=1, max_size=2, unique=True))
        prefixes = [Prefix.parse(p) for p in picked]
        self.facade.subscribe(NetworkUser(uid, prefixes=prefixes),
                              src_graph=build(src), dst_graph=build(dst))
        self.registered.setdefault(uid, set()).update(prefixes)
        self.install(uid, src, dst)
        self.recheck_seen()

    @rule(uid=st.sampled_from(USERS))
    def uninstall(self, uid):
        assert self.facade.uninstall(uid) == (
            self.services.pop(uid, None) is not None)
        self.recheck_seen()

    @rule(uid=st.sampled_from(USERS), src=maybe_specs, dst=maybe_specs)
    def swap_policy(self, uid, src, dst):
        if uid not in self.services or (src is None and dst is None):
            try:
                self.facade.swap_policy(uid, src_graph=build(src),
                                        dst_graph=build(dst))
            except DeploymentError:
                return
            raise AssertionError("swap should have been refused")
        self.facade.swap_policy(uid, src_graph=build(src), dst_graph=build(dst))
        self.install(uid, src, dst)
        self.recheck_seen()

    @rule(uid=st.sampled_from(USERS), active=st.booleans())
    def set_active(self, uid, active):
        if uid not in self.services:
            try:
                self.facade.set_active(uid, active)
            except DeploymentError:
                return
            raise AssertionError("set_active should have been refused")
        self.facade.set_active(uid, active)
        self.services[uid]["active"] = active
        self.recheck_seen()

    @rule(src=st.sampled_from(ADDRESSES), dst=st.sampled_from(ADDRESSES),
          proto=st.sampled_from(PROTOS), dport=st.sampled_from(DPORTS),
          form=FORMS)
    def check(self, src, dst, proto, dport, form):
        self.seen[src, dst, proto, dport] = form
        self.check_one(src, dst, proto, dport, form)

    def recheck_seen(self):
        for flow, form in self.seen.items():
            self.check_one(*flow, form)

    def check_one(self, src, dst, proto, dport, form):
        src_i, dst_i = int(IPv4Address.parse(src)), int(IPv4Address.parse(dst))
        want = self.expected(src_i, dst_i, proto, dport)
        if form == "mapped":
            controller = TrafficController(self.facade, dst, proto=proto,
                                           dport=dport)
            got = controller.allow(f"::ffff:{src}")
        else:
            args = {"int": (src_i, dst_i), "str": (src, dst),
                    "mixed": (src, dst_i)}[form]
            got = self.facade.check(*args, proto=proto, dport=dport)
        assert got == want
        if want is PASS_DIRECT:
            assert got is PASS_DIRECT

    @rule()
    def tick(self):
        self.clock.advance(1.0)

    @invariant()
    def registry_matches_the_model(self):
        registry = self.facade.registry
        for addr in EDGES:
            owner = registry.owner_of(addr)
            assert (None if owner is None else owner.user_id) == self.owner(
                int(IPv4Address.parse(addr)))
        for uid in USERS:
            assert (uid in registry) == (uid in self.registered)

    @invariant()
    def generation_gauge_follows_the_core(self):
        facade = self.facade
        assert facade._m_policy_generation.value == facade.core.generation


TestFacadeLifecycle = FacadeLifecycle.TestCase
TestFacadeLifecycle.settings = settings(stateful_step_count=25)

"""Replayed verdicts against stage runs: a generated differential test.

One generated event stream drives two worlds built alike, except that in
the second every header filter is an :class:`OpaqueHeaderFilter`, which
claims not to be flow-invariant, so its decision cores never replay a
flow's verdict and run the stage programs on every owned packet.  Each
world has a :class:`~repro.service.facade.ServiceFacade` and an
:class:`~repro.core.device.AdaptiveDevice` reached through its router's
``receive``, both with a small flow cache.

The events are owned and unowned packets, hot swaps of any subscriber's
stage graphs, activation flips, a registration that takes part of one
subscriber's prefix and its removal, and LRU evictions.  A source stage
may hold a :class:`TtlRewriter`, which the Sec. 4.5 monitor catches on
the same service instance as a flow-invariant destination stage.  After
every packet the worlds must agree on verdicts, every component, graph
and monitor tally, the cores' counters and the whole registry snapshot.
CI draws more cases with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from typing import Optional

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from repro.core import ComponentGraph, NetworkUser, OwnershipRegistry
from repro.core.components import (
    Capabilities,
    Component,
    HeaderFilter,
    HeaderMatch,
    PrefixBlacklist,
    Verdict,
)
from repro.core.device import AdaptiveDevice, DeviceContext
from repro.net import IPv4Address, Network, Packet, Prefix, Protocol, TopologyBuilder
from repro.obs import scoped
from repro.service import ManualClock, ServiceFacade

P = Prefix.parse
CACHE = 4

USERS = {"a": P("10.1.0.0/16"), "b": P("10.2.0.0/16"), "v": P("10.3.0.0/16")}
#: registered and unregistered mid-stream, with no service: its prefix
#: takes part of a's flows out of the pipeline
LATE = NetworkUser("late", prefixes=[P("10.1.128.0/17")])
ADDRESSES = ("10.1.0.5", "10.1.200.9", "10.2.0.7", "10.3.0.1", "10.3.9.9",
             "192.0.2.1")
PROTOS = (Protocol.TCP, Protocol.UDP)
DPORTS = (7, 53, 80)


class OpaqueHeaderFilter(HeaderFilter):
    """A header filter its decision core may not replay."""

    def __init__(self, name: str, match: HeaderMatch) -> None:
        super().__init__(name, match)
        self.flow_invariant = False


class TtlRewriter(Component):
    """Declares nothing, then rewrites the TTL (E5's lying component)."""

    capabilities = Capabilities()

    def process(self, packet, ctx):
        packet.ttl -= 1
        return Verdict.PASS


#: rule name -> HeaderMatch; "big" and "sport" read fields outside the
#: flow key
MATCHES = {
    "dport7": HeaderMatch(dport=7),
    "udp": HeaderMatch(proto=Protocol.UDP),
    "not80": HeaderMatch(proto=Protocol.TCP, dport_not_in=(80,)),
    "from-b": HeaderMatch(src_prefix=USERS["b"]),
    "big": HeaderMatch(min_size=1000),
    "sport": HeaderMatch(sport=1024),
}
#: the rules a core may replay, and all rules; five in six drawn rules
#: are replayable, so that replays are common
INVARIANT = ["dport7", "udp", "not80", "from-b"]
RULES = sorted(MATCHES) + ["bl", "ttl"]
rules = st.sampled_from(INVARIANT) | st.sampled_from(INVARIANT) | st.sampled_from(RULES)

specs = st.lists(rules, min_size=1, max_size=2, unique=True).map(tuple)
maybe_specs = st.none() | specs
#: v's source stage always starts out violating, next to a destination
#: stage its cores may replay
installs = st.fixed_dictionaries({
    "a": st.tuples(maybe_specs, specs),
    "b": st.tuples(maybe_specs, specs),
    "v": st.tuples(st.just(("ttl",)),
                   st.lists(st.sampled_from(INVARIANT), min_size=1, max_size=2,
                            unique=True).map(tuple))})
#: a small pool of flows, so the cache both hits and evicts; v's
#: addresses are drawn twice as often, so its violation often falls
#: between two packets of a flow into v
V_ADDRESSES = ADDRESSES + ("10.3.0.1", "10.3.9.9")
flows = st.lists(st.tuples(st.sampled_from(V_ADDRESSES), st.sampled_from(V_ADDRESSES),
                           st.sampled_from(PROTOS), st.sampled_from(DPORTS)),
                 min_size=1, max_size=6, unique=True)
packets = st.tuples(st.just("packet"), st.integers(0, 5),
                    st.sampled_from((1024, 2048)), st.sampled_from((64, 1200)),
                    st.booleans())
#: seven packets for each swap, activation flip and LATE (un)registration
kinds = {"packet": packets,
         "swap": st.tuples(st.just("swap"), st.sampled_from(sorted(USERS)),
                           maybe_specs, maybe_specs),
         "flip": st.tuples(st.just("flip"), st.sampled_from(sorted(USERS))),
         "late": st.just(("late",))}
events = st.lists(
    st.sampled_from(["packet"] * 7 + ["swap", "flip", "late"]).flatmap(kinds.get),
    min_size=10, max_size=60)


class World:
    """A facade and a router's device over one registry, in their own
    metric registry; ``opaque`` swaps every header filter for an
    :class:`OpaqueHeaderFilter`."""

    def __init__(self, opaque: bool, install: dict) -> None:
        self.header_filter = OpaqueHeaderFilter if opaque else HeaderFilter
        self.components: list[Component] = []
        self.graphs: list[ComponentGraph] = []
        with scoped() as self.metrics:
            self.net = Network(TopologyBuilder.line(2))
            topo = self.net.topology
            self.registry = OwnershipRegistry()
            self.users = {uid: NetworkUser(uid, prefixes=[prefix])
                          for uid, prefix in USERS.items()}
            for user in self.users.values():
                self.registry.register(user)
            self.device = AdaptiveDevice(
                DeviceContext(0, topo.role_of(0), topo.prefix_of(0)),
                self.registry, strict=False)
            self.device._core.flow_cache_capacity = CACHE
            self.router = self.net.routers[0]
            self.router.adaptive_device = self.device
            self.facade = ServiceFacade(self.registry, clock=ManualClock())
            self.facade.core.flow_cache_capacity = CACHE
            for uid, (src_spec, dst_spec) in sorted(install.items()):
                self.device.install(self.users[uid], self.graph(uid, src_spec),
                                    self.graph(uid, dst_spec))
                self.facade.install(self.users[uid], self.graph(uid, src_spec),
                                    self.graph(uid, dst_spec))
        self.late = False

    def graph(self, uid: str, spec: Optional[tuple]) -> Optional[ComponentGraph]:
        if spec is None:
            return None
        ops: list[Component] = []
        for rule in spec:
            if rule == "bl":
                ops.append(PrefixBlacklist(rule, [USERS["a"]]))
            elif rule == "ttl":
                ops.append(TtlRewriter(rule))
            else:
                ops.append(self.header_filter(rule, MATCHES[rule]))
        graph = ComponentGraph(f"{uid}:{len(self.graphs)}")
        graph.chain(*ops)
        self.components += ops
        self.graphs.append(graph)
        return graph

    def apply(self, event: tuple, now: float) -> tuple:
        """Run one event; a packet returns both consumers' verdicts."""
        with scoped(self.metrics):
            kind = event[0]
            if kind == "swap":
                _, uid, src_spec, dst_spec = event
                if src_spec is None and dst_spec is None:
                    return ()
                user = self.users[uid]
                self.device.install(user, self.graph(uid, src_spec),
                                    self.graph(uid, dst_spec))
                self.facade.swap_policy(uid, self.graph(uid, src_spec),
                                        self.graph(uid, dst_spec))
            elif kind == "flip":
                uid = event[1]
                active = not self.device.services[uid].active
                self.device.set_active(uid, active)
                self.facade.set_active(uid, active)
            elif kind == "late":
                if self.late:
                    self.registry.unregister(LATE.user_id)
                else:
                    self.registry.register(LATE)
                self.late = not self.late
            else:
                return self.check(event, now)
        return ()

    def check(self, event: tuple, now: float) -> tuple:
        _, src, dst, proto, dport, sport, size, via_link = event
        link = self.router.links[1] if via_link else None
        packet = Packet(IPv4Address.parse(src), IPv4Address.parse(dst),
                        proto=proto, size=size, sport=sport, dport=dport)
        dropped = self.router.drops["adaptive-device"]
        self.router.receive(packet, link)
        verdict = self.facade.check(src, dst, proto=proto, sport=sport,
                                    dport=dport, size=size, now=now)
        return (self.router.drops["adaptive-device"] - dropped, verdict)

    def state(self) -> tuple:
        """Everything a replay must leave as a stage run would."""
        monitors = [(uid, core_name, instance.disabled_for_violation,
                     vars(instance.monitor))
                    for core_name, services in (
                        ("device", self.device.services),
                        ("facade", self.facade.core.services))
                    for uid, instance in sorted(services.items())]
        cores = [(c.m_redirected.value, c.m_dropped.value,
                  c.m_safety_disables.value, c.m_fc_hits.value,
                  c.m_fc_misses.value, c.generation)
                 for c in (self.device._core, self.facade.core)]
        return ([(c.processed, c.dropped) for c in self.components],
                [(g.packets_in, g.packets_dropped) for g in self.graphs],
                monitors, cores, self.metrics.snapshot())


def run_both(install: dict, pool: list, stream: list) -> World:
    """Drive both worlds through ``stream``, whose packets pick their flow
    from ``pool`` by index; return the replaying world."""
    replaying, walking = World(False, install), World(True, install)
    for n, event in enumerate(stream):
        if event[0] == "packet":
            event = ("packet", *pool[event[1] % len(pool)], *event[2:])
        now = n * 1e-3
        assert replaying.apply(event, now) == walking.apply(event, now), event
        assert replaying.state() == walking.state(), (n, event)
    return replaying


#: a flow from a into v, dropped by v's dport-7 destination stage, and a
#: flow inside v, whose source stage rewrites the TTL
VIOLATION = ({"a": (None, ("udp",)), "b": (None, ("udp",)),
              "v": (("ttl",), ("dport7",))},
             [("10.1.0.5", "10.3.0.1", Protocol.TCP, 7),
              ("10.3.9.9", "10.3.0.1", Protocol.TCP, 53)],
             [("packet", i, 1024, 64, False) for i in (0, 0, 1, 0, 0)])


@given(installs, flows, events)
@example(*VIOLATION)
def test_replayed_verdicts_equal_stage_runs(install, pool, stream):
    run_both(install, pool, stream)


def test_a_violation_stops_the_replay_of_the_services_other_stage():
    """v's source stage rewrites the TTL and its destination stage drops
    dport 7: once v is disabled, a flow into v passes, unfiltered, and v's
    destination filter counts no more packets."""
    replaying = run_both(*VIOLATION)
    # the device's and the facade's copy of v's destination filter
    for dport7 in (c for c in replaying.components if c.name == "dport7"):
        assert (dport7.processed, dport7.dropped) == (2, 2)
    assert replaying.facade.core.services["v"].disabled_for_violation
    verdict = replaying.facade.check("10.1.0.5", "10.3.0.1", dport=7)
    assert verdict.allowed and verdict.reason == "processed"


def test_swap_isolation(monkeypatch):
    """After a's policy is swapped, a cached flow of b walks nothing, and
    a's flow walks its new two-op program once, then replays it."""
    calls = []
    original = HeaderFilter.process

    def counted(self, packet, ctx):
        calls.append(self.name)
        return original(self, packet, ctx)

    monkeypatch.setattr(HeaderFilter, "process", counted)
    world = World(False, {"a": (None, ("dport7", "udp")),
                          "b": (None, ("dport7", "udp")),
                          "v": (None, ("udp",))})
    to_a, to_b = "10.1.0.5", "10.2.0.7"

    def walks(dst: str) -> int:
        """The filter calls of one check from an unowned host to ``dst``."""
        before = len(calls)
        world.facade.check("192.0.2.1", dst, dport=80)
        return len(calls) - before

    assert walks(to_a) == 2 and walks(to_b) == 2
    assert walks(to_a) == 0 and walks(to_b) == 0
    with scoped(world.metrics):
        world.facade.swap_policy("a", dst_graph=world.graph("a", ("udp", "dport7")))
    assert walks(to_b) == 0
    assert walks(to_a) == 2
    assert walks(to_a) == 0


def test_header_filter_match_is_read_only():
    rule = HeaderFilter("f", HeaderMatch(dport=7))
    with pytest.raises(AttributeError):
        rule.match = HeaderMatch(dport=9)  # type: ignore[misc]
    assert rule.match == HeaderMatch(dport=7)


def test_flow_invariance_follows_the_fields_a_match_reads():
    key_only = HeaderMatch(proto=Protocol.TCP, dport=7, dport_not_in=(80,),
                           src_prefix=USERS["a"], dst_prefix=USERS["b"])
    assert HeaderFilter("f", key_only).flow_invariant
    for field, value in (("sport", 1024), ("min_size", 100), ("max_size", 100),
                         ("flags_any", 2), ("icmp_type", 3)):
        match = HeaderMatch(**{field: value})
        assert not HeaderFilter("f", match).flow_invariant, field
    assert not PrefixBlacklist("bl", [USERS["a"]]).flow_invariant
    assert not OpaqueHeaderFilter("f", key_only).flow_invariant

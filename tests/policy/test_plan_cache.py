"""The compile plan cache: graphs of one shape share a plan, never state.

A plan is what compiling derives from a graph's structural key alone
(diagnostics, edge arrays, signature); the
:class:`CompiledPolicy` binds it to one graph's components.  These tests
pin that a compile which reuses a cached plan is indistinguishable from
one that builds its plan fresh, and count the plans the live service's
subscriber and churn paths create.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ComponentGraph, NetworkUser, OwnershipRegistry
from repro.core.components import (
    Capabilities,
    Component,
    HeaderFilter,
    HeaderMatch,
    Verdict,
)
from repro.core.compose import RuleSpec, ServiceSpec, build_graph
from repro.core.device import DeviceContext
from repro.errors import ComponentGraphError, VettingError
from repro.net import ASRole, Prefix
from repro.policy import compile_policy
from repro.policy import compiler
from repro.service import ServiceFacade
from tests.policy.test_compiler import component_state, ctx, random_packets

DEV = DeviceContext(asn=3, role=ASRole.STUB,
                    local_prefix=Prefix.parse("10.3.0.0/16"))

PREFIXES = ("203.0.113.0/24", "198.51.100.0/24", "10.1.0.0/16", "128.0.0.0/2")

#: per action, the rules it can take; the small parameter ranges make two
#: draws for one action list often, but not always, compile to one shape
RULES = {
    "drop": st.builds(RuleSpec, action=st.just("drop"),
                      proto=st.sampled_from([None, "tcp", "udp", "icmp"]),
                      dport=st.sampled_from([None, 7, 53]),
                      tcp_flags=st.sampled_from([None, "rst", "syn"]),
                      max_size=st.sampled_from([None, 512])),
    "rate-limit": st.builds(RuleSpec, action=st.just("rate-limit"),
                            rate_bps=st.sampled_from([1e5, 2e6])),
    "blacklist": st.builds(RuleSpec, action=st.just("blacklist"),
                           prefixes=st.sampled_from(PREFIXES).map(lambda p: (p,))),
    "anti-spoof": st.builds(RuleSpec, action=st.just("anti-spoof"),
                            prefixes=st.sampled_from(PREFIXES).map(lambda p: (p,))),
    "trigger": st.builds(RuleSpec, action=st.just("trigger"),
                         threshold_pps=st.sampled_from([10.0, 1000.0])),
    "log": st.just(RuleSpec(action="log")),
    "collect-stats": st.just(RuleSpec(action="collect-stats")),
    "scrub-payload": st.just(RuleSpec(action="scrub-payload")),
}


def specs_for(actions):
    spec = st.tuples(*(RULES[a] for a in actions)).map(
        lambda rules: ServiceSpec("svc", rules))
    return st.tuples(spec, spec)


#: two specs over one action list
SPEC_PAIRS = st.lists(st.sampled_from(sorted(RULES)), min_size=1,
                      max_size=5).flatmap(specs_for)


def drive(compiled, graph):
    """Verdicts, then the component and graph counters they left behind.
    Packets are made afresh: a scrubber shrinks the ones it sees."""
    packets = random_packets(96, seed=11)
    verdicts = [compiled.process(p, ctx(i * 1e-4))
                for i, p in enumerate(packets)]
    return verdicts, component_state(graph)


@given(SPEC_PAIRS)
@settings(max_examples=80, deadline=None)
def test_cached_compile_equals_fresh_compile(pair):
    """Compile ``b`` after ``a`` (reusing ``a``'s plan when the shapes
    agree), then again with the cache cleared: the two are identical."""
    spec_a, spec_b = pair

    compiler._PLANS.clear()
    warm = compile_policy(build_graph(spec_a, DEV), vet=True)
    g_cached = build_graph(spec_b, DEV)
    cached = compile_policy(g_cached, vet=True)

    compiler._PLANS.clear()
    g_fresh = build_graph(spec_b, DEV)
    fresh = compile_policy(g_fresh, vet=True)
    assert fresh._plan is not cached._plan

    assert (cached._plan is warm._plan) == (fresh.signature == warm.signature)
    assert cached.signature == fresh.signature
    assert cached.diagnostics == fresh.diagnostics
    assert drive(cached, g_cached) == drive(fresh, g_fresh)


def two_filters(name: str, ports=(7, 9)) -> ComponentGraph:
    graph = ComponentGraph(name)
    graph.chain(*(HeaderFilter(f"f{p}", HeaderMatch(dport=p)) for p in ports))
    return graph


def test_same_shape_shares_the_plan_not_the_state():
    g_a, g_b = two_filters("svc:a"), two_filters("svc:b")
    a = compile_policy(g_a, vet=True)
    b = compile_policy(g_b, vet=True)
    assert a._plan is b._plan
    assert a.signature == b.signature
    assert not set(map(id, a._comps)) & set(map(id, b._comps))

    packets = random_packets(64, seed=3)
    for i, p in enumerate(packets):
        a.process(p, ctx(i * 1e-4))
    assert g_a.packets_in == len(packets)
    assert g_b.packets_in == 0
    assert all(c.processed == 0 for c in g_b.components())


def test_signature_bytes_are_pinned():
    """The signature is the plan's sha256 over the same per-op tuples as
    before plans existed; this digest was recorded from that code."""
    spec = ServiceSpec(name="svc", rules=(
        RuleSpec(action="drop", proto="tcp", tcp_flags="rst", dport=80),
        RuleSpec(action="blacklist", prefixes=("203.0.113.0/24",
                                               "198.51.100.0/24")),
        RuleSpec(action="rate-limit", rate_bps=1e6),
        RuleSpec(action="trigger", threshold_pps=500.0),
        RuleSpec(action="log"),
    ))
    for _ in range(2):  # fresh plan, then the cached one
        assert compile_policy(build_graph(spec, DEV)).signature == (
            "83a2d3cc2d565cfe32169f734222a1f7babc2d765c00ed6e96cd2b1b1f98a12e")


def test_runtime_plan_does_not_skip_vetting():
    """A graph that only compiles unvetted (``vet=False``, the runtime
    path) must still fail the vetted install of the same shape."""
    class Grower(Component):
        capabilities = Capabilities(max_size_ratio=2.0)

        def process(self, packet, ctx):
            return Verdict.PASS

    def graph():
        g = ComponentGraph("amp")
        g.chain(Grower("g"))
        return g

    runtime = compile_policy(graph(), vet=False)
    with pytest.raises(VettingError, match="byte amplification"):
        compile_policy(graph(), vet=True)
    assert compile_policy(graph(), vet=False)._plan is runtime._plan


def test_a_non_enum_predicate_signs_apart_from_no_predicate():
    """``HeaderMatch(icmp_type=3)`` drops nothing (a packet's ICMP type is
    an enum member, never the int 3) while ``HeaderMatch()`` drops
    everything, so the two must not share a signature or a plan."""
    def graph(match):
        g = ComponentGraph("k")
        g.chain(HeaderFilter("f", match))
        return compile_policy(g, vet=True)

    everything, nothing = graph(HeaderMatch()), graph(HeaderMatch(icmp_type=3))
    assert everything.signature != nothing.signature
    assert everything._plan is not nothing._plan
    packet = random_packets(1, seed=0)[0]
    assert everything.process(packet, ctx()) is Verdict.DROP
    assert nothing.process(packet, ctx()) is Verdict.PASS


def test_rejected_graph_never_reaches_the_cache():
    gc.collect()
    compiler._PLANS.clear()
    empty = ComponentGraph("empty")
    for _ in range(2):
        with pytest.raises(ComponentGraphError, match="graph 'empty' is empty"):
            compile_policy(empty, vet=True)
    assert len(compiler._PLANS) == 0


def subscriber_world(n: int) -> ServiceFacade:
    facade = ServiceFacade(OwnershipRegistry())
    for i in range(n):
        user = NetworkUser(f"sub-{i}",
                           prefixes=[Prefix((10 << 24) | (i << 12), 20)])
        facade.subscribe(user, dst_graph=two_filters(f"svc:sub-{i}"))
    return facade


def test_4096_same_shape_subscribers_make_one_plan():
    gc.collect()
    compiler._PLANS.clear()
    facade = subscriber_world(4096)
    plans = {id(s.dst_graph.compiled()._plan)
             for s in facade.core.services.values()}
    assert len(plans) == 1
    assert len(compiler._PLANS) == 1


def test_churn_swaps_between_two_filter_orders_make_two_plans():
    gc.collect()
    compiler._PLANS.clear()
    facade = subscriber_world(64)
    for i in range(64):
        ports = (9, 7) if i % 2 == 0 else (7, 9)
        facade.swap_policy(f"sub-{i}",
                           dst_graph=two_filters(f"svc:sub-{i}", ports))
    plans = {id(s.dst_graph.compiled()._plan)
             for s in facade.core.services.values()}
    assert len(plans) == 2
    assert len(compiler._PLANS) == 2

"""The compile plan cache: graphs of one shape share a plan, never state.

A plan is what a successful compile derives from a graph's shape (the
edge arrays), keyed on what the passes read: each op's capabilities and
edges and the entry.  The :class:`CompiledPolicy` binds it to
one graph's components.  These tests pin that a compile which reuses a
cached plan is indistinguishable from one that builds its plan fresh,
and count the plans the live service's subscriber and churn paths
create.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ComponentGraph, NetworkUser, OwnershipRegistry
from repro.core.components import HeaderFilter, HeaderMatch, Verdict
from repro.core.compose import RuleSpec, ServiceSpec, compile_spec
from repro.core.device import DeviceContext
from repro.errors import ComponentGraphError
from repro.net import ASRole, Prefix
from repro.policy import compile_policy
from repro.policy import compiler
from repro.service import ServiceFacade
from tests.policy.test_compiler import (
    ACTION_LISTS,
    DEV,
    component_state,
    ctx,
    random_packets,
    spec_for,
)

#: two specs over one action list
SPEC_PAIRS = ACTION_LISTS.flatmap(
    lambda actions: st.tuples(spec_for(actions), spec_for(actions)))


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
    warm = compile_policy(compile_spec(spec_a, DEV))
    g_cached = compile_spec(spec_b, DEV)
    cached = compile_policy(g_cached)

    compiler._PLANS.clear()
    g_fresh = compile_spec(spec_b, DEV)
    fresh = compile_policy(g_fresh)
    assert fresh._plan is not cached._plan

    plan = cached._plan
    assert (plan.pass_next, plan.drop_next, plan.entry) == (
        fresh._plan.pass_next, fresh._plan.drop_next, fresh._plan.entry)
    assert drive(cached, g_cached) == drive(fresh, g_fresh)


def two_filters(name: str, ports=(7, 9)) -> ComponentGraph:
    graph = ComponentGraph(name)
    graph.chain(*(HeaderFilter(f"f{p}", HeaderMatch(dport=p)) for p in ports))
    return graph


def test_same_shape_shares_the_plan_not_the_state():
    g_a, g_b = two_filters("svc:a"), two_filters("svc:b")
    a = compile_policy(g_a)
    b = compile_policy(g_b)
    assert a._plan is b._plan
    assert not set(map(id, a.components)) & set(map(id, b.components))

    packets = random_packets(64, seed=3)
    for i, p in enumerate(packets):
        a.process(p, ctx(i * 1e-4))
    assert g_a.packets_in == len(packets)
    assert g_b.packets_in == 0
    assert all(c.processed == 0 for c in g_b.components())


def test_plan_key_follows_rule_order_not_the_device():
    """One spec compiled for two devices shares a plan; reversing its
    rules moves capabilities between ops, so it makes another."""
    spec = ServiceSpec(name="svc", rules=(
        RuleSpec(action="drop", proto="tcp", tcp_flags="rst"),
        RuleSpec(action="blacklist", prefixes=("203.0.113.0/24",)),
        RuleSpec(action="log"),
    ))
    other = DeviceContext(asn=77, role=ASRole.TRANSIT,
                          local_prefix=Prefix.parse("10.7.0.0/16"))
    here = compile_policy(compile_spec(spec, DEV))
    there = compile_policy(compile_spec(spec, other))
    reversed_spec = ServiceSpec("svc", tuple(reversed(spec.rules)))
    swapped = compile_policy(compile_spec(reversed_spec, DEV))
    assert here._plan is there._plan
    assert swapped._plan is not here._plan


def test_a_shared_plan_never_shares_parameters():
    """``HeaderMatch()`` drops everything and ``HeaderMatch(icmp_type=3)``
    (host unreachable) passes the packet drawn here, which is not an ICMP
    host-unreachable message.  Both graphs have the same capabilities and
    edges, so they share one plan; each still filters with its own
    parameters."""
    def graph(match):
        g = ComponentGraph("k")
        g.chain(HeaderFilter("f", match))
        return compile_policy(g)

    everything, nothing = graph(HeaderMatch()), graph(HeaderMatch(icmp_type=3))
    assert everything._plan is nothing._plan
    packet = random_packets(1, seed=0)[0]
    assert everything.process(packet, ctx()) is Verdict.DROP
    assert nothing.process(packet, ctx()) is Verdict.PASS


def test_rejected_graph_never_reaches_the_cache():
    gc.collect()
    compiler._PLANS.clear()
    empty = ComponentGraph("empty")
    for _ in range(2):
        with pytest.raises(ComponentGraphError, match="graph 'empty' is empty"):
            compile_policy(empty)
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
    plans = {id(s.dst_program._plan)
             for s in facade.core.services.values()}
    assert len(plans) == 1
    assert len(compiler._PLANS) == 1


def test_churn_swaps_between_two_filter_orders_make_one_plan():
    """Both filter orders have the same capabilities and edges."""
    gc.collect()
    compiler._PLANS.clear()
    facade = subscriber_world(64)
    for i in range(64):
        ports = (9, 7) if i % 2 == 0 else (7, 9)
        facade.swap_policy(f"sub-{i}",
                           dst_graph=two_filters(f"svc:sub-{i}", ports))
    plans = {id(s.dst_program._plan)
             for s in facade.core.services.values()}
    assert len(plans) == 1
    assert len(compiler._PLANS) == 1

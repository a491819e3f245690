"""Compiled policies: parity with a reference walk, caching, errors."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.components import (
    Component,
    ComponentContext,
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    PrefixBlacklist,
    RateLimiterComponent,
    SourceAntiSpoof,
    StatisticsCollector,
    TriggerComponent,
    Verdict,
)
from repro.core.compose import RuleSpec, ServiceSpec, compile_spec
from repro.core.device import DeviceContext
from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser
from repro.errors import ComponentGraphError, VettingError
from repro.net import ASRole, IPv4Address, Packet, Prefix, Protocol
from repro.net.packet import TCPFlags
from repro.policy import CompiledPolicy, compile_policy, problems

LOCAL = Prefix.parse("10.9.0.0/16")
OWNER = NetworkUser("owner", prefixes=[Prefix.parse("10.1.0.0/16")])


def ctx(now: float = 0.0) -> ComponentContext:
    return ComponentContext(now=now, asn=9, is_transit=False,
                            local_prefix=LOCAL, stage="dest", owner=OWNER,
                            ingress_asn=None, local_origin=True)


def random_packets(n: int, seed: int) -> list[Packet]:
    rng = np.random.default_rng(seed)
    packets = []
    for _ in range(n):
        src = IPv4Address(int(rng.integers(0, 2**32)))
        dst = IPv4Address(int(rng.integers(0, 2**32)))
        if rng.random() < 0.5:
            packets.append(Packet.udp(src, dst,
                                      dport=int(rng.integers(0, 128)),
                                      size=int(rng.integers(64, 1500))))
        else:
            flags = TCPFlags.RST if rng.random() < 0.3 else TCPFlags.ACK
            packets.append(Packet(src=src, dst=dst, proto=Protocol.TCP,
                                  flags=flags, dport=80,
                                  size=int(rng.integers(64, 1500))))
    return packets


def build_mixed_chain() -> ComponentGraph:
    graph = ComponentGraph("mixed")
    graph.chain(
        HeaderFilter("f-rst", HeaderMatch(proto=Protocol.TCP,
                                          flags_any=TCPFlags.RST)),
        HeaderFilter("f-udp", HeaderMatch(proto=Protocol.UDP,
                                          dport_not_in=(53,))),
        StatisticsCollector("stats"),
        LoggerComponent("log"),
        PrefixBlacklist("bl", [Prefix.parse("128.0.0.0/2")]),
        RateLimiterComponent("rl", rate_bps=2_000_000.0),
    )
    return graph


def build_drop_dag() -> ComponentGraph:
    graph = ComponentGraph("dag")
    graph.add(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)))
    graph.add(SourceAntiSpoof("as", [Prefix.parse("10.1.0.0/16")]))
    graph.add(LoggerComponent("droplog"))
    graph.connect("f", "as", Verdict.PASS)
    graph.connect("f", "droplog", Verdict.DROP)
    graph.connect("as", "droplog", Verdict.DROP)
    return graph


def component_state(graph: ComponentGraph) -> dict:
    state = {}
    for comp in graph.components():
        state[comp.name] = (comp.processed, comp.dropped)
        if isinstance(comp, LoggerComponent):
            state[comp.name] += (tuple(comp.entries),)
        if isinstance(comp, RateLimiterComponent):
            state[comp.name] += (comp.bucket.admitted, comp.bucket.rejected)
        if isinstance(comp, StatisticsCollector):
            state[comp.name] += (dict(comp.packets_by_proto),
                                 dict(comp.bytes_by_proto))
        if isinstance(comp, TriggerComponent):
            state[comp.name] += (comp.fired, comp.armed)
    return state


def reference_walk(graph: ComponentGraph, packet: Packet,
                   c: ComponentContext) -> Verdict:
    """The graph's semantics, written plainly: from the entry, run each
    component, tally its ``processed``/``dropped``, and follow its
    verdict's edge; DROP is sticky.  Touches no graph counter."""
    edges = graph.edges()
    doomed = False
    node = graph.entry
    while node is not None:
        component = graph.component(node)
        component._m_processed.value += 1
        verdict = component.process(packet, c)
        if verdict is Verdict.DROP:
            component._m_dropped.value += 1
            doomed = True
        node = edges.get((node, verdict))
    return Verdict.DROP if doomed else Verdict.PASS


def one_op_program(component: Component) -> CompiledPolicy:
    """``component`` compiled alone: the one walk that tallies its
    ``processed``/``dropped``."""
    graph = ComponentGraph(component.name)
    graph.chain(component)
    return compile_policy(graph)


def assert_counts(graph: ComponentGraph, verdicts: list) -> None:
    """The compiled program bumped the graph's counters once per packet."""
    assert graph.packets_in == len(verdicts)
    assert graph.packets_dropped == verdicts.count(Verdict.DROP)


@pytest.mark.parametrize("builder", [build_mixed_chain, build_drop_dag])
def test_differential_reference_compiled_parity(builder):
    """The reference walk and the compiled program produce identical
    verdicts and observer state."""
    packets = random_packets(256, seed=7)

    g_ref, g_scalar = builder(), builder()
    verdicts_ref = [reference_walk(g_ref, p, ctx(i * 1e-4))
                    for i, p in enumerate(packets)]
    compiled_scalar = compile_policy(g_scalar)
    verdicts_scalar = [compiled_scalar.process(p, ctx(i * 1e-4))
                       for i, p in enumerate(packets)]
    assert verdicts_ref == verdicts_scalar
    assert Verdict.DROP in verdicts_scalar and Verdict.PASS in verdicts_scalar
    assert component_state(g_ref) == component_state(g_scalar)
    assert_counts(g_scalar, verdicts_scalar)


def test_walk_runs_the_class_current_process(monkeypatch):
    """A ``process`` patched onto a component class after compiling still
    runs, and the walk still tallies the op: a tracer wraps ``process``
    on the class, not on the compiled program."""
    graph = ComponentGraph("patched")
    graph.chain(HeaderFilter("f-udp", HeaderMatch(proto=Protocol.UDP)))
    program = compile_policy(graph)
    original = HeaderFilter.process
    seen = []

    def traced(self, packet, c):
        seen.append(packet)
        return original(self, packet, c)

    monkeypatch.setattr(HeaderFilter, "process", traced)
    packets = random_packets(64, seed=3)
    verdicts = [program.process(p, ctx()) for p in packets]
    assert len(seen) == len(packets)
    assert all(a is b for a, b in zip(seen, packets))
    assert Verdict.DROP in verdicts and Verdict.PASS in verdicts
    op = graph.component("f-udp")
    assert (op.processed, op.dropped) == (64, verdicts.count(Verdict.DROP))
    assert_counts(graph, verdicts)


DEV = DeviceContext(asn=3, role=ASRole.STUB,
                    local_prefix=Prefix.parse("10.3.0.0/16"))

PREFIXES = ("203.0.113.0/24", "198.51.100.0/24", "10.1.0.0/16", "128.0.0.0/2")

#: per action, the rules it can take.  Two specs over one action list
#: share a plan key whatever their parameters.
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


def spec_for(actions):
    """A service spec with one rule per action, in order."""
    return st.tuples(*(RULES[a] for a in actions)).map(
        lambda rules: ServiceSpec("svc", rules))


#: 1-5 actions drawn from all eight
ACTION_LISTS = st.lists(st.sampled_from(sorted(RULES)), min_size=1,
                        max_size=5)


@given(ACTION_LISTS.flatmap(spec_for))
def test_generated_reference_compiled_parity(spec):
    """The reference walk and the compiled program agree on generated
    specs: verdicts and component state; the program also keeps the
    graph counters.  Each side gets its own packets, since a scrubber
    shrinks the ones it sees."""
    g_ref, g_compiled = compile_spec(spec, DEV), compile_spec(spec, DEV)
    compiled = compile_policy(g_compiled)
    verdicts_ref = [reference_walk(g_ref, p, ctx(i * 1e-4)) for i, p
                    in enumerate(random_packets(128, seed=5))]
    verdicts_compiled = [compiled.process(p, ctx(i * 1e-4)) for i, p
                         in enumerate(random_packets(128, seed=5))]
    assert verdicts_ref == verdicts_compiled
    assert component_state(g_ref) == component_state(g_compiled)
    assert_counts(g_compiled, verdicts_compiled)


class TestErrorsAndCache:
    def test_structural_error_matches_validate(self):
        """``compile_policy`` raises the structural error."""
        graph = ComponentGraph("empty")
        with pytest.raises(ComponentGraphError) as err:
            compile_policy(graph)
        assert [str(p) for p in problems(graph)] == [str(err.value)]
        assert str(err.value) == "graph 'empty' is empty"

    def test_vetting_error_matches_vet_graph(self):
        """``compile_policy`` raises the first vetting error."""
        from repro.core.components import Capabilities, Component

        class Grower(Component):
            capabilities = Capabilities(max_size_ratio=2.0)

            def process(self, packet, ctx):
                return Verdict.PASS

        graph = ComponentGraph("amp")
        graph.chain(Grower("g"))
        with pytest.raises(VettingError) as err:
            compile_policy(graph)
        assert [str(p) for p in problems(graph)] == [str(err.value)]
        assert str(err.value) == (
            "component 'g' may grow packets by factor 2.0: byte "
            "amplification is forbidden (Sec. 4.5)")

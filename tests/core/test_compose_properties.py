"""Property-based tests for the service composition layer."""

from hypothesis import given, settings, strategies as st

from repro.core.compose import RuleSpec, ServiceSpec, compile_spec
from repro.core.device import DeviceContext
from repro.net import ASRole, Prefix
from repro.policy import compile_policy

CTX = DeviceContext(asn=3, role=ASRole.STUB,
                    local_prefix=Prefix.parse("10.3.0.0/16"))


@st.composite
def rules(draw):
    action = draw(st.sampled_from(
        ["drop", "rate-limit", "scrub-payload", "blacklist", "log",
         "collect-stats", "trigger"]))
    kwargs = {"action": action}
    if action == "drop":
        kwargs["proto"] = draw(st.sampled_from(["tcp", "udp", "icmp", None]))
        kwargs["dport"] = draw(st.one_of(st.none(),
                                         st.integers(min_value=1, max_value=65535)))
    elif action == "rate-limit":
        kwargs["rate_bps"] = draw(st.floats(min_value=1e3, max_value=1e9))
    elif action == "blacklist":
        base = draw(st.integers(min_value=0, max_value=255))
        kwargs["prefixes"] = (f"{base}.0.0.0/8",)
    elif action == "trigger":
        kwargs["threshold_pps"] = draw(st.floats(min_value=1.0, max_value=1e5))
    return RuleSpec(**kwargs)


@st.composite
def specs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return ServiceSpec(name=f"svc-{n}", rules=tuple(draw(rules()) for _ in range(n)))


class TestComposeProperties:
    @given(spec=specs())
    @settings(max_examples=80, deadline=None)
    def test_compiles_to_one_component_per_rule(self, spec):
        graph = compile_spec(spec, CTX)
        assert len(graph) == len(spec.rules)
        compile_policy(graph)  # spec graphs are always structurally valid

    @given(spec=specs())
    @settings(max_examples=40, deadline=None)
    def test_compilation_is_deterministic(self, spec):
        g1 = compile_spec(spec, CTX)
        g2 = compile_spec(spec, CTX)
        assert [c.name for c in g1.components()] == [c.name for c in g2.components()]
        assert [type(c) for c in g1.components()] == [type(c) for c in g2.components()]

    @given(spec=specs())
    @settings(max_examples=40, deadline=None)
    def test_compiled_graphs_always_pass_vetting(self, spec):
        """No declarative rule can ever express a Sec. 4.5 violation."""
        graph = compile_spec(spec, CTX)
        compile_policy(graph)  # must not raise

    @given(spec=specs())
    @settings(max_examples=30, deadline=None)
    def test_compiled_graph_processes_packets(self, spec):
        from repro.core import NetworkUser
        from repro.core.components import ComponentContext, Verdict
        from repro.net import IPv4Address, Packet

        graph = compile_spec(spec, CTX)
        owner = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
        ctx = ComponentContext(now=0.0, asn=3, is_transit=False,
                               local_prefix=Prefix.parse("10.3.0.0/16"),
                               stage="dest", owner=owner)
        pkt = Packet.udp(IPv4Address.parse("10.9.0.1"),
                         IPv4Address.parse("10.1.0.1"), size=500)
        verdict = compile_policy(graph).process(pkt, ctx)
        assert verdict in (Verdict.PASS, Verdict.DROP)
        # conservation: the compiled pipeline never grows the packet
        assert pkt.size <= 500

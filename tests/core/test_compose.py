"""Tests for declarative service specification and composition."""

import pytest

from repro.core.compose import RuleSpec, ServiceSpec, compile_spec, spec_factory
from repro.core.components import (
    ComponentContext,
    HeaderFilter,
    LoggerComponent,
    PrefixBlacklist,
    RateLimiterComponent,
    SourceAntiSpoof,
    TriggerComponent,
    Verdict,
)
from repro.core.device import DeviceContext
from repro.core import NetworkUser
from repro.errors import DeploymentError
from repro.net import ASRole, IPv4Address, Packet, Prefix
from repro.policy import compile_policy

A = IPv4Address.parse
CTX = DeviceContext(asn=3, role=ASRole.STUB,
                    local_prefix=Prefix.parse("10.3.0.0/16"))
OWNER = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])


def comp_ctx(now=0.0):
    return ComponentContext(now=now, asn=3, is_transit=False,
                            local_prefix=Prefix.parse("10.3.0.0/16"),
                            stage="dest", owner=OWNER)


class TestValidation:
    def test_unknown_action(self):
        with pytest.raises(DeploymentError):
            RuleSpec(action="teleport").validate()

    def test_rate_limit_requires_rate(self):
        with pytest.raises(DeploymentError):
            RuleSpec(action="rate-limit").validate()

    def test_blacklist_requires_prefixes(self):
        with pytest.raises(DeploymentError):
            RuleSpec(action="blacklist").validate()

    def test_trigger_requires_threshold(self):
        with pytest.raises(DeploymentError):
            RuleSpec(action="trigger").validate()

    def test_empty_spec(self):
        with pytest.raises(DeploymentError):
            ServiceSpec(name="empty").validate()

    def test_from_dict_freezes_list_fields(self):
        rule = RuleSpec.from_dict({"action": "blacklist",
                                   "prefixes": ["10.9.0.0/16"],
                                   "dport_not_in": [53, 80]})
        assert rule == RuleSpec(action="blacklist", prefixes=("10.9.0.0/16",),
                                dport_not_in=(53, 80))
        hash(rule)

    @pytest.mark.parametrize("data", [
        {"action": "drop", "bogus": 1},   # unknown field
        {"proto": "udp"},                 # no action
        ["drop"],                         # not an object
        {"action": "blacklist", "prefixes": "10.9.0.0/16"},  # not a list
    ])
    def test_from_dict_rejects_malformed_rules(self, data):
        with pytest.raises(DeploymentError):
            RuleSpec.from_dict(data)

    def test_unknown_protocol_rejected_at_compile(self):
        spec = ServiceSpec("s", (RuleSpec(action="drop", proto="sctp"),))
        with pytest.raises(DeploymentError):
            compile_spec(spec, CTX)


class TestCompilation:
    def test_component_families(self):
        spec = ServiceSpec("kitchen-sink", (
            RuleSpec(action="drop", proto="tcp", tcp_flags="rst"),
            RuleSpec(action="rate-limit", rate_bps=1e6),
            RuleSpec(action="blacklist", prefixes=("10.200.0.0/16",)),
            RuleSpec(action="anti-spoof", prefixes=("10.1.0.0/16",)),
            RuleSpec(action="log"),
            RuleSpec(action="collect-stats"),
            RuleSpec(action="trigger", threshold_pps=100.0),
            RuleSpec(action="scrub-payload"),
        ))
        graph = compile_spec(spec, CTX)
        types = [type(c) for c in graph.components()]
        assert HeaderFilter in types
        assert RateLimiterComponent in types
        assert PrefixBlacklist in types
        assert SourceAntiSpoof in types
        assert LoggerComponent in types
        assert TriggerComponent in types
        assert len(graph) == 8

    def test_graph_name_carries_device(self):
        spec = ServiceSpec("fw", (RuleSpec(action="log"),))
        assert compile_spec(spec, CTX).name == "fw@AS3"

    def test_compiled_graph_is_vetted_and_runs(self):
        spec = ServiceSpec("fw", (
            RuleSpec(action="drop", proto="udp", dport=53, label="no-dns"),
            RuleSpec(action="log"),
        ))
        graph = compile_spec(spec, CTX)
        dns = Packet.udp(A("10.9.0.1"), A("10.1.0.1"), dport=53)
        web = Packet.udp(A("10.9.0.1"), A("10.1.0.1"), dport=80)
        program = compile_policy(graph)
        assert program.process(dns, comp_ctx()) is Verdict.DROP
        assert program.process(web, comp_ctx()) is Verdict.PASS

    def test_rule_labels_used(self):
        spec = ServiceSpec("fw", (RuleSpec(action="log", label="audit"),))
        graph = compile_spec(spec, CTX)
        assert graph.component("audit")

    def test_trigger_action_bound(self):
        fired = []
        spec = ServiceSpec("t", (RuleSpec(action="trigger", threshold_pps=5.0),))
        graph = compile_spec(spec, CTX,
                             trigger_action=lambda ctx, rate: fired.append(rate))
        program = compile_policy(graph)
        pkt = Packet.udp(A("10.9.0.1"), A("10.1.0.1"))
        for i in range(40):
            program.process(pkt, comp_ctx(now=i * 0.01))
        assert fired

    def test_icmp_and_flag_vocabulary(self):
        spec = ServiceSpec("fw", (
            RuleSpec(action="drop", proto="icmp", icmp_type="host-unreachable"),
            RuleSpec(action="drop", proto="tcp", tcp_flags="synack"),
        ))
        graph = compile_spec(spec, CTX)
        from repro.net import ICMPType

        icmp = Packet.icmp(A("10.9.0.1"), A("10.1.0.1"),
                           ICMPType.HOST_UNREACHABLE)
        synack = Packet.tcp_synack(A("10.9.0.1"), A("10.1.0.1"))
        program = compile_policy(graph)
        assert program.process(icmp, comp_ctx()) is Verdict.DROP
        assert program.process(synack, comp_ctx()) is Verdict.DROP


class TestEndToEndDeployment:
    def test_spec_factory_deploys_through_tcsp(self):
        from repro.core import (
            DeploymentScope,
            NumberAuthority,
            Tcsp,
            TrafficControlService,
        )
        from repro.net import Network, TopologyBuilder

        net = Network(TopologyBuilder.hierarchical(2, 2, 3, seed=8))
        authority = NumberAuthority()
        tcsp = Tcsp("TCSP", authority, net)
        tcsp.contract_isp("isp", net.topology.as_numbers)
        victim_asn = net.topology.stub_ases[0]
        prefix = net.topology.prefix_of(victim_asn)
        authority.record_allocation(prefix, "acme")
        user, cert = tcsp.register_user("acme", [prefix])
        svc = TrafficControlService(tcsp, user, cert)
        spec = ServiceSpec("block-dns", (RuleSpec(action="drop", proto="udp",
                                                  dport=53),))
        svc.deploy(DeploymentScope.everywhere(),
                   dst_graph_factory=spec_factory(spec))
        victim = net.add_host(victim_asn)
        client = net.add_host(net.topology.stub_ases[1])
        client.send(Packet.udp(client.address, victim.address, dport=53))
        client.send(Packet.udp(client.address, victim.address, dport=80))
        net.run()
        assert victim.received_packets == 1

    def test_deploy_rules_installs_a_scoped_router_filter(self):
        from repro.core.compose import deploy_rules
        from repro.net import Network, TopologyBuilder

        net = Network(TopologyBuilder.hierarchical(2, 2, 3, seed=8))
        stubs = net.topology.stub_ases
        victim = net.add_host(stubs[0])
        bystander = net.add_host(stubs[2])
        client = net.add_host(stubs[1])
        owner = NetworkUser("acme", prefixes=[net.topology.prefix_of(stubs[0])])
        deploy_rules(net, [stubs[1]], owner, "acme-dns", dst_rules=(
            RuleSpec(action="drop", proto="udp", dport=53),))
        assert [asn for asn, router in net.routers.items()
                if router.has_filter("acme-dns")] == [stubs[1]]
        client.send(Packet.udp(client.address, victim.address, dport=53))
        client.send(Packet.udp(client.address, bystander.address, dport=53))
        net.run()
        # only the owner's traffic reaches its rule
        assert victim.received_packets == 0
        assert bystander.received_packets == 1
        assert net.routers[stubs[1]].drops["filter:acme-dns"] == 1


class TestRuleFilter:
    @pytest.mark.parametrize("rule", [
        RuleSpec(action="rate-limit", rate_bps=1e6),
        RuleSpec(action="trigger", threshold_pps=10.0),
    ])
    def test_stateful_rules_rejected_at_construction(self, rule):
        from repro.core.compose import RuleFilter
        from repro.net import TopologyBuilder

        with pytest.raises(DeploymentError, match="packet engine"):
            RuleFilter(TopologyBuilder.line(3), [0], OWNER, "x",
                       dst_rules=(rule,))

    def test_restricted_needs_a_subset(self):
        from repro.core.compose import RuleFilter
        from repro.net import TopologyBuilder

        filt = RuleFilter(TopologyBuilder.line(3), [0, 1], OWNER, "x",
                          dst_rules=(RuleSpec(action="drop", proto="udp"),))
        assert filt.restricted([1]).asns == frozenset({1})
        with pytest.raises(DeploymentError):
            filt.restricted([1, 2])

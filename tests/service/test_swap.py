"""Atomic policy hot-swap on the live facade."""

import pytest

from repro.core.components import HeaderFilter, HeaderMatch, PrefixBlacklist
from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser
from repro.net.addressing import IPv4Address
from repro.errors import ComponentGraphError, DeploymentError
from repro.net import Prefix, Protocol
from repro.service.facade import ServiceFacade, TrafficController


def make_facade() -> ServiceFacade:
    facade = ServiceFacade()
    user = NetworkUser("u1", "cust", [Prefix.parse("10.0.0.0/8")])
    graph = ComponentGraph("v1")
    graph.chain(HeaderFilter("drop-udp", HeaderMatch(proto=Protocol.UDP)))
    facade.subscribe(user, src_graph=graph)
    return facade


class TestSwapPolicy:
    def test_swap_changes_the_decision(self):
        facade = make_facade()
        assert not facade.check("10.1.2.3", "4.4.4.4",
                                proto=Protocol.UDP).allowed
        replacement = ComponentGraph("v2")
        replacement.chain(PrefixBlacklist("bl", [Prefix.parse("9.0.0.0/8")]))
        facade.swap_policy("u1", src_graph=replacement)
        assert facade.check("10.1.2.3", "4.4.4.4",
                            proto=Protocol.UDP).allowed

    def test_swap_bumps_generation_and_metrics(self):
        facade = make_facade()
        before = facade.core.generation
        replacement = ComponentGraph("v2")
        replacement.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.TCP)))
        generation = facade.swap_policy("u1", src_graph=replacement)
        assert generation == before + 1 == facade.core.generation
        assert facade._m_policy_swaps.value == 1
        assert facade._m_policy_generation.value == generation

    def test_failed_swap_is_atomic(self):
        """A rejected graph leaves the old policy fully active."""
        facade = make_facade()
        swaps_before = facade._m_policy_swaps.value
        with pytest.raises(ComponentGraphError):
            facade.swap_policy("u1", src_graph=ComponentGraph("empty"))
        assert facade._m_policy_compile_failures.value == 1
        assert facade._m_policy_swaps.value == swaps_before
        # old v1 policy still dropping UDP
        assert not facade.check("10.1.2.3", "4.4.4.4",
                                proto=Protocol.UDP).allowed

    def test_swap_resets_safety_disable(self):
        facade = make_facade()
        instance = facade.core.services["u1"]
        instance.disabled_for_violation = True
        replacement = ComponentGraph("v2")
        replacement.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)))
        facade.swap_policy("u1", src_graph=replacement)
        assert not instance.disabled_for_violation

    def test_unknown_user_and_empty_swap_are_rejected(self):
        facade = make_facade()
        graph = ComponentGraph("g")
        graph.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)))
        with pytest.raises(DeploymentError):
            facade.swap_policy("nobody", src_graph=graph)
        with pytest.raises(DeploymentError):
            facade.swap_policy("u1")

    def test_controller_delegates(self):
        facade = make_facade()
        controller = TrafficController(facade, "4.4.4.4",
                                       proto=Protocol.UDP, dport=53)
        assert not controller.allow("10.1.2.3", now=0.0).allowed
        replacement = ComponentGraph("v2")
        replacement.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.TCP)))
        generation = controller.swap_policy("u1", src_graph=replacement)
        assert generation == facade.core.generation
        assert controller.allow("10.1.2.3", now=0.0).allowed


class TestGenerationGauge:
    """``service.policy.generation`` follows the core after every
    management call, not only after a swap."""

    def test_gauge_tracks_every_management_call(self):
        facade = make_facade()
        gauge = facade._m_policy_generation
        assert gauge.value == facade.core.generation == 1
        other = NetworkUser("u2", "cust", [Prefix.parse("11.0.0.0/8")])
        graph = ComponentGraph("u2")
        graph.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.TCP)))
        steps = [
            lambda: facade.subscribe(other, dst_graph=graph),
            lambda: facade.set_active("u1", False),
            lambda: facade.set_active("u1", True),
            lambda: facade.install(other, src_graph=graph),
            lambda: facade.swap_policy("u2", dst_graph=graph),
            lambda: facade.uninstall("u2"),
        ]
        for step in steps:
            before = facade.core.generation
            step()
            assert facade.core.generation == before + 1
            assert gauge.value == facade.core.generation


class TestSwapKeepsTheFlowCache:
    """A swap changes no owner and no redirect decision, so cached flows
    stay cached and the next check runs the new program."""

    def test_swap_keeps_entries_and_runs_the_new_program(self):
        facade = make_facade()
        flows = [("10.1.2.3", "4.4.4.4"), ("11.0.0.1", "4.4.4.4"),
                 (int(IPv4Address.parse("10.9.9.9")), "8.8.8.8")]
        for src, dst in flows:
            facade.check(src, dst, proto=Protocol.UDP)
        cached = len(facade.core.flow_cache)
        assert cached == len(flows)
        misses = facade.core.m_fc_misses.value
        replacement = ComponentGraph("v2")
        replacement.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.TCP)))
        facade.swap_policy("u1", src_graph=replacement)
        assert len(facade.core.flow_cache) == cached
        assert facade.check("10.1.2.3", "4.4.4.4", proto=Protocol.UDP).allowed
        assert not facade.check("10.1.2.3", "4.4.4.4",
                                proto=Protocol.TCP).allowed
        assert facade.core.m_fc_misses.value == misses + 1  # only the TCP flow

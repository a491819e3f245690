"""Tests for the fluid model under injected (valley-free) routing, plus
fluid-model conservation properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Flow, FlowSet, FluidNetwork, TopologyBuilder
from repro.net.policy import PolicyRouting


@pytest.fixture(scope="module")
def hier():
    return TopologyBuilder.hierarchical(2, 2, 3, seed=5)


class TestPolicyFluid:
    def test_paths_come_from_path_fn(self, hier):
        policy = PolicyRouting(hier)
        fluid = FluidNetwork(hier, path_fn=policy.path)
        stubs = hier.stub_ases
        assert fluid.path(stubs[0], stubs[-1]) == policy.path(stubs[0], stubs[-1])

    def test_path_caching_returns_copies(self, hier):
        policy = PolicyRouting(hier)
        fluid = FluidNetwork(hier, path_fn=policy.path)
        stubs = hier.stub_ases
        p1 = fluid.path(stubs[0], stubs[1])
        p1.append(999)  # mutating the returned list must not poison the cache
        p2 = fluid.path(stubs[0], stubs[1])
        assert 999 not in p2

    def test_expected_ingress_single_path(self, hier):
        policy = PolicyRouting(hier)
        fluid = FluidNetwork(hier, path_fn=policy.path)
        stubs = hier.stub_ases
        src, dst = stubs[0], stubs[-1]
        path = policy.path(src, dst)
        ingress = fluid.expected_ingress(dst, src)
        assert ingress == frozenset({path[-2]})

    def test_expected_ingress_unroutable_is_empty(self):
        import networkx as nx

        from repro.net import ASRole
        from repro.net.topology import Topology

        g = nx.Graph()
        g.add_node(0, role=ASRole.STUB)
        g.add_node(1, role=ASRole.STUB)
        g.add_node(2, role=ASRole.STUB)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        topo = Topology(g)
        policy = PolicyRouting(topo)
        fluid = FluidNetwork(topo, path_fn=policy.path)
        # stub 1 will not transit between its two peers: 0 -> 2 unroutable
        assert fluid.expected_ingress(2, 0) == frozenset()

    def test_evaluation_respects_policy_paths(self, hier):
        """Traffic volumes land on policy links, not shortest-path links."""
        policy = PolicyRouting(hier)
        fluid_vf = FluidNetwork(hier, path_fn=policy.path)
        stubs = hier.stub_ases
        flow = Flow(stubs[0], stubs[-1], 1e6)
        result = fluid_vf.evaluate(FlowSet([flow]), congestion=False)
        path = policy.path(stubs[0], stubs[-1])
        for a, b in zip(path, path[1:]):
            assert result.link_load[(a, b)] == pytest.approx(1e6)


class TestFluidConservation:
    @given(
        n_flows=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=30),
        keep=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_delivered_never_exceeds_sent(self, n_flows, seed, keep):
        import numpy as np

        topo = TopologyBuilder.powerlaw(n=30, m=2, seed=seed)
        fluid = FluidNetwork(topo)
        rng = np.random.default_rng(seed)
        nodes = topo.as_numbers
        flows = FlowSet([
            Flow(int(rng.choice(nodes)), int(rng.choice(nodes)),
                 float(rng.uniform(1e5, 1e7)))
            for _ in range(n_flows)
        ])

        class Thin:
            def pass_fractions(self, hops, sel):
                return np.full(sel.size, keep)

        result = fluid.evaluate(flows, filters=[Thin()])
        for i, flow in enumerate(result.flows):
            assert result.delivered[i] <= flow.rate + 1e-6
            assert result.filtered[i] >= -1e-6
            assert result.congestion_lost[i] >= -1e-6
            total = (result.delivered[i] + result.filtered[i]
                     + result.congestion_lost[i])
            assert total == pytest.approx(flow.rate, rel=1e-6)

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_congested_links_never_exceed_capacity_materially(self, seed):
        import numpy as np

        topo = TopologyBuilder.powerlaw(n=25, m=2, seed=seed)
        fluid = FluidNetwork(topo)
        fluid.capacity = lambda a, b: 1e6
        rng = np.random.default_rng(seed + 1)
        nodes = topo.as_numbers
        flows = FlowSet([
            Flow(int(rng.choice(nodes)), int(rng.choice(nodes)), 5e6)
            for _ in range(15)
        ])
        result = fluid.evaluate(flows, congestion=True, congestion_iters=12)
        for load in result.link_load.values():
            assert load <= 1e6 * 1.15  # iterative scaling converges closely

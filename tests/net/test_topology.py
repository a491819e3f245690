"""Unit tests for topology builders and the Topology class."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.net import ASRole, Topology, TopologyBuilder


class TestHierarchical:
    def test_tier_counts(self):
        t = TopologyBuilder.hierarchical(n_core=3, transit_per_core=2, stub_per_transit=4, seed=1)
        assert len(t.core_ases) == 3
        assert len(t.transit_ases) == 6
        assert len(t.stub_ases) == 24
        assert len(t) == 33

    def test_connected_and_deterministic(self):
        a = TopologyBuilder.hierarchical(seed=7)
        b = TopologyBuilder.hierarchical(seed=7)
        assert nx.is_connected(a.graph)
        assert sorted(a.graph.edges) == sorted(b.graph.edges)

    def test_core_mesh(self):
        t = TopologyBuilder.hierarchical(n_core=4, transit_per_core=0, stub_per_transit=0, seed=1)
        for i, a in enumerate(t.core_ases):
            for b in t.core_ases[i + 1:]:
                assert t.graph.has_edge(a, b)

    def test_invalid_sizes(self):
        with pytest.raises(TopologyError):
            TopologyBuilder.hierarchical(n_core=0)


class TestPowerlaw:
    def test_roles_assigned(self):
        t = TopologyBuilder.powerlaw(n=100, seed=5)
        assert t.core_ases and t.stub_ases
        assert len(t) == 100

    def test_core_has_highest_degree(self):
        t = TopologyBuilder.powerlaw(n=200, seed=2)
        min_core_deg = min(t.degree(a) for a in t.core_ases)
        max_stub_deg = max(t.degree(a) for a in t.stub_ases)
        assert min_core_deg >= max_stub_deg

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            TopologyBuilder.powerlaw(n=2, m=2)

    def test_deterministic(self):
        a = TopologyBuilder.powerlaw(n=50, seed=3)
        b = TopologyBuilder.powerlaw(n=50, seed=3)
        assert sorted(a.graph.edges) == sorted(b.graph.edges)


class TestInternetLike:
    def test_builds_with_all_roles(self):
        t = TopologyBuilder.internet_like(n=150, seed=11)
        assert len(t) == 150
        assert t.core_ases and t.stub_ases


class TestMicroTopologies:
    def test_line(self):
        t = TopologyBuilder.line(4)
        assert t.stub_ases == [0, 3]
        assert t.transit_ases == [1, 2]

    def test_line_two_nodes_all_stub(self):
        t = TopologyBuilder.line(2)
        assert t.stub_ases == [0, 1]

    def test_star(self):
        t = TopologyBuilder.star(5)
        assert t.transit_ases == [0]
        assert len(t.stub_ases) == 5

    def test_tree(self):
        t = TopologyBuilder.tree(branching=2, height=3)
        assert t.role_of(0) is ASRole.CORE
        leaves = [a for a in t.as_numbers if t.degree(a) == 1]
        assert all(t.role_of(a) is ASRole.STUB for a in leaves)

    def test_from_graph_defaults_stub(self):
        g = nx.cycle_graph(4)
        t = TopologyBuilder.from_graph(g, roles={0: ASRole.CORE})
        assert t.role_of(0) is ASRole.CORE
        assert t.role_of(1) is ASRole.STUB


class TestTopologyQueries:
    def test_prefixes_disjoint_and_resolvable(self):
        t = TopologyBuilder.hierarchical(seed=1)
        for asn in t.as_numbers:
            p = t.prefix_of(asn)
            assert t.as_of(p.first) == asn
            assert t.as_of(p.last) == asn

    def test_add_host(self):
        t = TopologyBuilder.star(3)
        addr = t.add_host(1)
        assert t.as_of(addr) == 1
        assert addr in list(t.ases[1].hosts)

    def test_add_host_unknown_as(self):
        t = TopologyBuilder.star(3)
        with pytest.raises(TopologyError):
            t.add_host(99)

    def test_add_hosts_unique(self):
        t = TopologyBuilder.star(3)
        addrs = t.add_hosts(2, 10)
        assert len(set(addrs)) == 10

    def test_disconnected_graph_rejected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        with pytest.raises(TopologyError):
            Topology(g)

    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):
            Topology(nx.Graph())

    def test_as_of_unknown_address(self):
        t = TopologyBuilder.star(2)
        assert t.as_of("203.0.113.1") is None


@given(n=st.integers(min_value=5, max_value=60), seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=20, deadline=None)
def test_powerlaw_always_connected_with_roles(n, seed):
    t = TopologyBuilder.powerlaw(n=n, m=2, seed=seed)
    assert nx.is_connected(t.graph)
    assert t.stub_ases  # builder guarantees at least one stub

"""Tests for valley-free policy routing."""

import pytest

from repro.errors import RoutingError
from repro.net import ASRole, TopologyBuilder
from repro.net.policy import PolicyRouting, Relationship, infer_relationship


@pytest.fixture(scope="module")
def hier():
    return TopologyBuilder.hierarchical(2, 2, 3, seed=5)


class TestRelationshipInference:
    def test_stub_sees_transit_as_provider(self, hier):
        stub = hier.stub_ases[0]
        transit = next(n for n in hier.neighbors(stub)
                       if hier.role_of(n) is ASRole.TRANSIT)
        assert infer_relationship(hier, stub, transit) is Relationship.PROVIDER
        assert infer_relationship(hier, transit, stub) is Relationship.CUSTOMER

    def test_core_pair_are_peers(self, hier):
        a, b = hier.core_ases[:2]
        assert infer_relationship(hier, a, b) is Relationship.PEER

    def test_relationship_lookup_requires_adjacency(self, hier):
        pr = PolicyRouting(hier)
        stubs = hier.stub_ases
        with pytest.raises(RoutingError):
            pr.relationship(stubs[0], stubs[-1])


class TestValleyFreePaths:
    def test_paths_are_valley_free(self, hier):
        pr = PolicyRouting(hier)
        stubs = hier.stub_ases
        for src in stubs[:4]:
            for dst in stubs[-4:]:
                if src == dst:
                    continue
                path = pr.path(src, dst)
                assert path[0] == src and path[-1] == dst
                assert pr.is_valley_free(path)

    def test_self_path(self, hier):
        pr = PolicyRouting(hier)
        assert pr.path(3, 3) == [3]

    def test_no_transit_through_customer(self):
        """Two providers of the same stub must not route through it."""
        import networkx as nx

        from repro.net.topology import Topology

        g = nx.Graph()
        # two transits, both providers of one stub; transits not adjacent,
        # but both hang off separate cores that do peer.
        g.add_node(0, role=ASRole.CORE)
        g.add_node(1, role=ASRole.CORE)
        g.add_edge(0, 1)
        g.add_node(2, role=ASRole.TRANSIT)
        g.add_node(3, role=ASRole.TRANSIT)
        g.add_edge(0, 2)
        g.add_edge(1, 3)
        g.add_node(4, role=ASRole.STUB)  # customer of both transits
        g.add_edge(2, 4)
        g.add_edge(3, 4)
        topo = Topology(g)
        pr = PolicyRouting(topo)
        # shortest path 2 -> 3 would be 2-4-3 (through the stub customer),
        # but that is a valley: the policy path climbs over the cores.
        path = pr.path(2, 3)
        assert 4 not in path
        assert path == [2, 0, 1, 3]
        assert not pr.is_valley_free([2, 4, 3])

    def test_at_most_one_peer_edge(self, hier):
        pr = PolicyRouting(hier)
        for src in hier.stub_ases[:5]:
            for dst in hier.stub_ases[-5:]:
                if src == dst:
                    continue
                path = pr.path(src, dst)
                peers = sum(
                    1 for a, b in zip(path, path[1:])
                    if pr.relationship(a, b) is Relationship.PEER
                )
                assert peers <= 1

    def test_unreachable_raises_and_caches(self):
        """An isolated customer pair with no common provider chain."""
        import networkx as nx

        from repro.net.topology import Topology

        g = nx.Graph()
        g.add_node(0, role=ASRole.STUB)
        g.add_node(1, role=ASRole.STUB)
        g.add_node(2, role=ASRole.STUB)
        # 0 and 2 are both *providers*? no: same tier -> peers; a path
        # 0-1-2 would need stub 1 to transit between two peers: invalid.
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        topo = Topology(g)
        pr = PolicyRouting(topo)
        # peer -> peer at stub 1 is a valley; no valley-free path exists
        with pytest.raises(RoutingError):
            pr.path(0, 2)
        with pytest.raises(RoutingError):  # cached miss path
            pr.path(0, 2)
        assert not pr.has_path(0, 2)
        assert pr.has_path(0, 1)

    def test_explicit_relationships_override(self, hier):
        # force one stub-transit edge to be a peering: traffic from that
        # stub can still exit via its (now) peer, but only as first hop
        stub = hier.stub_ases[0]
        transit = next(n for n in hier.neighbors(stub)
                       if hier.role_of(n) is ASRole.TRANSIT)
        pr = PolicyRouting(hier, relationships={(stub, transit): Relationship.PEER})
        assert pr.relationship(stub, transit) is Relationship.PEER
        assert pr.relationship(transit, stub) is Relationship.PEER

    def test_policy_path_at_least_as_long_as_shortest(self, hier):
        import networkx as nx

        pr = PolicyRouting(hier)
        for src in hier.stub_ases[:4]:
            lengths = nx.single_source_shortest_path_length(hier.graph, src)
            for dst in hier.stub_ases[-4:]:
                if src == dst:
                    continue
                assert len(pr.path(src, dst)) - 1 >= lengths[dst]

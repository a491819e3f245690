"""Unit and property tests for shortest-path routing."""

import hashlib

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError, TopologyError
from repro.net import Network, Routing, TopologyBuilder, build_routing


class TestNextHops:
    def test_line_next_hops(self):
        t = TopologyBuilder.line(4)
        routing = build_routing(t)
        assert routing.next_hop(0, 3) == 1
        assert routing.next_hop(1, 3) == 2
        assert routing.next_hop(3, 0) == 2
        assert routing.next_hop(2, 2) == 2  # local delivery

    def test_paths_are_shortest(self):
        t = TopologyBuilder.powerlaw(n=40, seed=9)
        routing = build_routing(t)
        nodes = t.as_numbers
        for src in nodes[:10]:
            lengths = nx.single_source_shortest_path_length(t.graph, src)
            for dst in nodes[-10:]:
                path = routing.path(src, dst)
                assert len(path) - 1 == lengths[dst]
                # path must be a real walk in the graph
                for a, b in zip(path, path[1:]):
                    assert t.graph.has_edge(a, b)

    def test_path_endpoints(self):
        t = TopologyBuilder.hierarchical(seed=4)
        routing = build_routing(t)
        path = routing.path(t.stub_ases[0], t.stub_ases[-1])
        assert path[0] == t.stub_ases[0]
        assert path[-1] == t.stub_ases[-1]

    def test_self_path(self):
        t = TopologyBuilder.star(3)
        routing = build_routing(t)
        assert routing.path(2, 2) == [2]

    def test_unknown_destination(self):
        t = TopologyBuilder.star(3)
        routing = build_routing(t)
        with pytest.raises(RoutingError, match="AS 0: no route to AS 99"):
            routing.next_hop(0, 99)

    def test_deterministic_tie_breaking(self):
        t = TopologyBuilder.hierarchical(seed=2)
        t1 = build_routing(t)
        t2 = build_routing(t)
        for asn in t.as_numbers:
            for dst in t.as_numbers:
                assert t1.next_hop(asn, dst) == t2.next_hop(asn, dst)


class TestExpectedIngress:
    def test_line_expected_ingress(self):
        t = TopologyBuilder.line(4)
        routing = build_routing(t)
        # traffic from AS0 must reach AS3 via AS2
        assert routing.expected_ingress(3, 0) == frozenset({2})
        assert routing.expected_ingress(2, 0) == frozenset({1})

    def test_ingress_matches_actual_path(self):
        """The penultimate hop of every path is an expected ingress."""
        t = TopologyBuilder.powerlaw(n=30, seed=1)
        routing = build_routing(t)
        for src in t.as_numbers[:8]:
            for dst in t.as_numbers[-8:]:
                if src == dst:
                    continue
                path = routing.path(src, dst)
                if len(path) >= 2:
                    assert path[-2] in routing.expected_ingress(dst, src)

    def test_off_path_neighbour_not_expected(self):
        t = TopologyBuilder.line(4)
        routing = build_routing(t)
        # at AS1, traffic claiming source AS0 can only come from AS0, not AS2
        assert routing.expected_ingress(1, 0) == frozenset({0})


class TestRouting:
    def test_any_graph(self):
        routing = Routing(nx.Graph([(5, 7), (7, 9)]))
        assert routing.path(5, 9) == [5, 7, 9]
        assert routing.distance(9, 5) == 2
        assert 7 in routing and 6 not in routing

    def test_errors(self):
        g = nx.Graph([(0, 1)])
        g.add_node(2)
        routing = Routing(g)
        assert not routing.has_route(0, 2)
        assert not routing.has_route(0, 99)
        with pytest.raises(RoutingError, match="AS 0: no route to AS 2"):
            routing.next_hop(0, 2)
        with pytest.raises(RoutingError, match="AS 0 unreachable from AS 2"):
            routing.path(0, 2)
        with pytest.raises(RoutingError, match="AS 2 unreachable from AS 0"):
            routing.distance(2, 0)
        with pytest.raises(TopologyError, match="unknown AS 99"):
            routing.path(0, 99)
        assert routing.expected_ingress(1, 2) == frozenset()
        assert routing.expected_ingress(1, 99) == frozenset()

    def test_snapshot_outlives_a_link_failure(self):
        """A Routing keeps answering for the graph it was built on; the
        network's reconvergence builds a new one."""
        net = Network(TopologyBuilder.from_graph(nx.cycle_graph(4)))
        before = net.routing
        assert before.path(0, 1) == [0, 1]
        net.fail_link(0, 1)
        assert before.path(0, 1) == [0, 1]
        assert before.expected_ingress(1, 0) == frozenset({0})
        assert net.routing is not before
        assert net.path(0, 1) == [0, 3, 2, 1]
        assert net.routing.expected_ingress(1, 0) == frozenset({2})


def _routes_digest(routing, nodes):
    h = hashlib.sha256()
    for s in nodes:
        for d in nodes:
            h.update(f"{s}>{d}:{routing.next_hop(s, d)}\n".encode())
    for at in nodes:
        for s in nodes:
            h.update(f"{at}<{s}:{sorted(routing.expected_ingress(at, s))}\n".encode())
    return h.hexdigest()


#: sha256 over every (src, dst) next hop and every (at, src) expected-ingress
#: set, recorded from the eager all-pairs tables the lazy trees replaced.
PINNED_ROUTES = {
    "hierarchical": (lambda: TopologyBuilder.hierarchical(seed=3),
                     "504763f9afd2b2a70fd0385bf7307c8932ad60d846732d8ddcdedd69fb95c83c"),
    "powerlaw": (lambda: TopologyBuilder.powerlaw(n=60, seed=5),
                 "1d9803b4d74d03142571e8ec052f0ff88a3368d66bf9164f3aa411b4548d7869"),
    "internet_like": (lambda: TopologyBuilder.internet_like(n=80, seed=7),
                      "7dbf443028d99336060b50cbbcbc8c5034dd17d432168d36ac23aa2d93599d97"),
    "caida_like": (lambda: TopologyBuilder.caida_like(n=150, seed=11),
                   "6826693a7e3623ae2af7f661c83693ebaafa05dbd34d9c02c792a805d41730d8"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_ROUTES))
def test_routes_are_pinned(kind):
    make, digest = PINNED_ROUTES[kind]
    t = make()
    assert _routes_digest(build_routing(t), t.as_numbers) == digest


@given(n=st.integers(min_value=3, max_value=30), seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=15, deadline=None)
def test_all_pairs_reach_destination(n, seed):
    t = TopologyBuilder.powerlaw(n=n, m=2, seed=seed)
    routing = build_routing(t)
    nodes = t.as_numbers
    for src in nodes:
        for dst in nodes[:: max(1, len(nodes) // 5)]:
            path = routing.path(src, dst)
            assert path[-1] == dst
            assert len(set(path)) == len(path)  # loop-free

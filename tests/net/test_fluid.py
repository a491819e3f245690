"""Tests for the fluid (flow-level) network model."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.apps import TcsAntiSpoofMitigation
from repro.errors import RoutingError, TopologyError
from repro.mitigation import IngressFiltering, RouteBasedFiltering
from repro.net import Flow, FlowSet, FluidNetwork, TopologyBuilder
from repro.net.fluid import Hops
from repro.util.rng import derive_rng


class BlockAtAS:
    """Test filter: pass fraction `keep` for matching flows at one AS."""

    def __init__(self, asn, keep=0.0, kind=None):
        self.asn = asn
        self.keep = keep
        self.kind = kind

    def pass_fractions(self, hops: Hops, sel: np.ndarray) -> np.ndarray:
        out = np.ones(sel.size)
        for i, flow, asn, prev in hops.visits(sel, [self.asn]):
            if self.kind is None or flow.kind == self.kind:
                out[i] = self.keep
        return out


class FractionAt:
    """Test filter: pass fraction ``table[asn]`` at every hop."""

    def __init__(self, table):
        self.table = table

    def pass_fractions(self, hops: Hops, sel: np.ndarray) -> np.ndarray:
        return np.array([self.table.get(a, 1.0) for a in hops.asn[sel].tolist()])


def reference_evaluate(fn: FluidNetwork, flows, filters=(), congestion=True,
                       congestion_iters=6):
    """The per-flow walk :meth:`FluidNetwork.evaluate` must match bit for
    bit: flow by flow, hop by hop, each filter asked about one hop."""
    flow_list = list(flows)
    n = len(flow_list)
    rates = np.array([f.rate for f in flow_list], dtype=np.float64)
    paths = [fn.path(f.src_asn, f.dst_asn) for f in flow_list]
    rows = [(i, asn, path[pos - 1] if pos else -1, pos)
            for i, path in enumerate(paths) for pos, asn in enumerate(path)]
    hops = Hops(flow_list, *(np.array([r[c] for r in rows], dtype=np.int64)
                             for c in range(4)))

    survival = np.ones(n, dtype=np.float64)
    byte_hops = {f.kind: 0.0 for f in flow_list}
    filtered_hops_weighted: defaultdict[str, float] = defaultdict(float)
    filtered_total: defaultdict[str, float] = defaultdict(float)
    inc_flow, inc_link, inc_scale = [], [], []
    h = 0
    for i, (flow, path) in enumerate(zip(flow_list, paths)):
        frac = 1.0
        for pos, asn in enumerate(path):
            for filt in filters:
                p = filt.pass_fractions(hops, np.array([h + pos]))[0]
                if p < 1.0:
                    p = min(max(p, 0.0), 1.0)
                    dropped = frac * (1.0 - p)
                    if dropped > 0:
                        filtered_hops_weighted[flow.kind] += flow.rate * dropped * pos
                        filtered_total[flow.kind] += flow.rate * dropped
                    frac *= p
            if frac <= 0.0:
                frac = 0.0
                break
            if pos < len(path) - 1:
                inc_flow.append(i)
                inc_link.append((asn, path[pos + 1]))
                inc_scale.append(frac)
                byte_hops[flow.kind] += flow.rate * frac
        survival[i] = frac
        h += len(path)
    after_filter = rates * survival

    scale = np.ones(n, dtype=np.float64)
    link_load = {}
    if inc_flow:
        inc_flow_arr = np.array(inc_flow, dtype=np.int64)
        inc_scale_arr = np.array(inc_scale, dtype=np.float64)
        unique_links = sorted(set(inc_link))
        link_index = {lk: j for j, lk in enumerate(unique_links)}
        inc_link_arr = np.array([link_index[lk] for lk in inc_link], dtype=np.int64)
        caps = np.array([fn.capacity(a, b) for a, b in unique_links])
        for _ in range(congestion_iters if congestion else 1):
            contrib = rates[inc_flow_arr] * inc_scale_arr * scale[inc_flow_arr]
            loads = np.zeros(len(unique_links), dtype=np.float64)
            np.add.at(loads, inc_link_arr, contrib)
            if not congestion:
                break
            over = loads > caps
            if not over.any():
                break
            link_factor = np.where(over, caps / np.maximum(loads, 1e-30), 1.0)
            flow_factor = np.ones(n, dtype=np.float64)
            np.minimum.at(flow_factor, inc_flow_arr, link_factor[inc_link_arr])
            scale *= flow_factor
        link_load = {lk: float(loads[j]) for lk, j in link_index.items()}
    delivered = after_filter * scale
    drop_distance = {kind: filtered_hops_weighted[kind] / filtered_total[kind]
                     for kind in filtered_total if filtered_total[kind] > 0}
    return dict(delivered=delivered, filtered=rates - after_filter,
                congestion_lost=after_filter - delivered, link_load=link_load,
                byte_hops=byte_hops, drop_distance=drop_distance)


def assert_same_result(result, ref):
    """Exact equality, dict key order included (callers sum in it)."""
    for name in ("delivered", "filtered", "congestion_lost"):
        assert np.array_equal(getattr(result, name), ref[name]), name
    for name in ("link_load", "byte_hops", "drop_distance"):
        got = getattr(result, name)
        assert list(got.items()) == list(ref[name].items()), name


class TestPaths:
    def test_path_matches_line(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        assert fn.path(0, 3) == [0, 1, 2, 3]
        assert fn.path(3, 0) == [3, 2, 1, 0]
        assert fn.path(2, 2) == [2]

    def test_distance(self):
        fn = FluidNetwork(TopologyBuilder.line(5))
        assert fn.distance(0, 4) == 4
        assert fn.distance(4, 4) == 0

    def test_unknown_as(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        with pytest.raises(Exception):
            fn.path(0, 99)
        with pytest.raises(RoutingError, match="AS 99 unreachable from AS 0"):
            fn.distance(99, 0)
        with pytest.raises(TopologyError, match="unknown AS 99"):
            fn.distance(0, 99)

    def test_expected_ingress(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        assert fn.expected_ingress(2, 0) == frozenset({1})
        assert fn.expected_ingress(2, 3) == frozenset({3})
        assert fn.expected_ingress(2, 99) == frozenset()


    def test_routes_are_memoised_missing_ones_too(self):
        asked = []

        def path_fn(src, dst):
            asked.append((src, dst))
            if dst == 3:
                raise RoutingError(f"AS {src}: no route to AS {dst}")
            return list(range(src, dst + 1))

        fn = FluidNetwork(TopologyBuilder.line(4), path_fn=path_fn)
        for _ in range(2):
            assert fn.evaluate([Flow(0, 2, 1e6)]).delivered_rate() == 1e6
            assert fn.expected_ingress(3, 0) == frozenset()
            with pytest.raises(RoutingError, match="AS 1: no route to AS 3"):
                fn.evaluate([Flow(1, 3, 1e6)])
        assert asked == [(0, 2), (0, 3), (1, 3)]


class TestEvaluate:
    def test_unfiltered_uncongested_delivers_everything(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        flows = FlowSet([Flow(0, 3, 1e6), Flow(3, 0, 2e6)])
        r = fn.evaluate(flows)
        assert r.delivered_rate() == pytest.approx(3e6)
        assert r.survival_fraction("legit") == pytest.approx(1.0)

    def test_filter_removes_traffic(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        flows = FlowSet([Flow(0, 3, 1e6, kind="attack"), Flow(3, 0, 1e6, kind="legit")])
        r = fn.evaluate(flows, filters=[BlockAtAS(1, keep=0.0, kind="attack")])
        assert r.survival_fraction("attack") == 0.0
        assert r.survival_fraction("legit") == 1.0

    def test_partial_filters_compose_multiplicatively(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        flows = FlowSet([Flow(0, 3, 1e6)])
        r = fn.evaluate(flows, filters=[BlockAtAS(1, keep=0.5), BlockAtAS(2, keep=0.5)])
        assert r.survival_fraction("legit") == pytest.approx(0.25)

    def test_congestion_scales_down(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        fn.capacity = lambda a, b: 1e6
        flows = FlowSet([Flow(0, 2, 4e6)])
        r = fn.evaluate(flows)
        assert r.delivered_rate() == pytest.approx(1e6, rel=0.01)
        assert float(r.congestion_lost.sum()) == pytest.approx(3e6, rel=0.01)

    def test_congestion_shared_proportionally(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        fn.capacity = lambda a, b: 1e6
        flows = FlowSet([Flow(0, 2, 3e6, kind="attack"), Flow(0, 2, 1e6, kind="legit")])
        r = fn.evaluate(flows)
        assert r.delivered_rate("attack") == pytest.approx(0.75e6, rel=0.02)
        assert r.delivered_rate("legit") == pytest.approx(0.25e6, rel=0.02)

    def test_congestion_disabled(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        fn.capacity = lambda a, b: 1e6
        r = fn.evaluate(FlowSet([Flow(0, 2, 4e6)]), congestion=False)
        assert r.delivered_rate() == pytest.approx(4e6)
        assert r.link_load[(0, 1)] == pytest.approx(4e6)

    def test_byte_hops(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        r = fn.evaluate(FlowSet([Flow(0, 3, 1e6, kind="x")]))
        assert r.byte_hops["x"] == pytest.approx(3e6)  # 3 links at full rate

    def test_byte_hops_shrink_with_early_filtering(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        late = fn.evaluate(FlowSet([Flow(0, 3, 1e6, kind="x")]),
                           filters=[BlockAtAS(3)])
        early = fn.evaluate(FlowSet([Flow(0, 3, 1e6, kind="x")]),
                            filters=[BlockAtAS(0)])
        assert early.byte_hops["x"] == 0.0
        assert late.byte_hops["x"] == pytest.approx(3e6)

    def test_drop_distance(self):
        fn = FluidNetwork(TopologyBuilder.line(5))
        r = fn.evaluate(FlowSet([Flow(0, 4, 1e6, kind="x")]), filters=[BlockAtAS(2)])
        assert r.drop_distance["x"] == pytest.approx(2.0)

    def test_link_load_accumulates_across_flows(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        flows = FlowSet([Flow(0, 2, 1e6), Flow(0, 2, 2e6)])
        r = fn.evaluate(flows)
        assert r.link_load[(0, 1)] == pytest.approx(3e6)
        assert r.link_load[(1, 2)] == pytest.approx(3e6)

    def test_local_flow_has_no_links(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        r = fn.evaluate(FlowSet([Flow(1, 1, 1e6)]))
        assert r.delivered_rate() == pytest.approx(1e6)
        assert r.link_load == {}

    def test_empty_flowset(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        r = fn.evaluate(FlowSet())
        assert r.delivered_rate() == 0.0
        assert r.survival_fraction("legit") == 0.0


class TestFlowSemantics:
    def test_spoofed_flag(self):
        assert Flow(0, 1, 1.0, claimed_src_asn=2).spoofed
        assert not Flow(0, 1, 1.0).spoofed
        assert not Flow(0, 1, 1.0, claimed_src_asn=0).spoofed

    def test_source_address_asn(self):
        assert Flow(0, 1, 1.0).source_address_asn == 0
        assert Flow(0, 1, 1.0, claimed_src_asn=5).source_address_asn == 5

    def test_flowset_helpers(self):
        fs = FlowSet([Flow(0, 1, 1.0, kind="a"), Flow(0, 1, 2.0, kind="b")])
        fs.add(Flow(0, 1, 4.0, kind="a"))
        assert set(fs.by_kind()) == {"a", "b"}
        assert len(fs) == 3


KEEPS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, -0.5]) | st.floats(0.0, 1.0)


@st.composite
def fluid_cases(draw):
    """A small topology, flows (spoofed and legit) and filter specs."""
    topo = TopologyBuilder.powerlaw(n=draw(st.integers(4, 16)), m=2,
                                    seed=draw(st.integers(0, 10_000)))
    node = st.sampled_from(topo.as_numbers)
    flows = draw(st.lists(st.builds(
        Flow, node, node,
        st.sampled_from([0.0, 1e6]) | st.floats(1.0, 1e7),
        kind=st.sampled_from(["legit", "attack", "attack-request"]),
        claimed_src_asn=st.just(-1) | node), max_size=14))
    asn_set = st.frozensets(node)
    filters = draw(st.lists(st.one_of(
        st.tuples(st.just("block"), node, KEEPS,
                  st.sampled_from([None, "legit", "attack"])),
        st.tuples(st.just("fractions"), st.dictionaries(node, KEEPS)),
        st.tuples(st.sampled_from(["ingress", "rbf"]), asn_set),
        st.tuples(st.just("tcs"), node, asn_set)), max_size=3))
    capacity = draw(st.sampled_from([1e5, 1e6, 1e7]))
    return topo, flows, filters, capacity, draw(st.booleans())


def build_filter(spec, topo, fn):
    kind, *args = spec
    if kind == "block":
        return BlockAtAS(*args)
    if kind == "fractions":
        return FractionAt(*args)
    if kind == "tcs":
        victim, asns = args
        return TcsAntiSpoofMitigation([topo.prefix_of(victim)]).fluid_filter(
            topo, asns)
    scheme = IngressFiltering() if kind == "ingress" else RouteBasedFiltering()
    scheme.deployed_asns = set(args[0])
    return scheme.fluid_filter(fn)


class TestArrayProgramParity:
    """The array program against :func:`reference_evaluate`, exactly."""

    @given(fluid_cases())
    @settings(deadline=None)
    def test_generated_cases_match_reference(self, case):
        topo, flows, specs, capacity, congestion = case
        fn = FluidNetwork(topo)
        fn.capacity = lambda a, b: capacity
        result = fn.evaluate(flows, [build_filter(s, topo, fn) for s in specs],
                             congestion=congestion)
        ref = reference_evaluate(fn, flows,
                                 [build_filter(s, topo, fn) for s in specs],
                                 congestion=congestion)
        assert_same_result(result, ref)

    def test_restricted_filters_match_fresh_ones(self):
        """E4's shape: nested deployment fractions of shuffled stubs."""
        from repro.scenario.attacks import reflector_fanout, reflector_roles

        topo = TopologyBuilder.powerlaw(n=60, m=2, seed=3)
        fn = FluidNetwork(topo)
        roles = reflector_roles(topo, derive_rng(3, "roles"), 10, 5,
                                style="pick-victim")
        model = reflector_fanout(fn, roles, rate_per_agent=1e6,
                                 amplification=5.0)
        legit = [Flow(a, roles.victim_asn, 2e5, kind="legit")
                 for a in roles.spare_asns[:5]]
        stubs = list(topo.stub_ases)
        derive_rng(3, "deploy").shuffle(stubs)
        mit = TcsAntiSpoofMitigation([topo.prefix_of(roles.victim_asn)])
        full = mit.fluid_filter(topo, stubs)
        for fraction in (0.0, 0.2, 0.5, 1.0):
            deployed = stubs[: int(round(fraction * len(stubs)))]
            shared = model.evaluate(filters=[full.restricted(deployed)],
                                    extra_flows=legit, congestion=False)
            fresh = model.evaluate(filters=[mit.fluid_filter(topo, deployed)],
                                   extra_flows=legit, congestion=False)
            for got, want in zip(shared, fresh):
                assert_same_result(got, vars(want))
        assert full._cores and full._verdicts

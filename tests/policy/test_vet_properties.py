"""Property tests of the Sec. 4.5 vetting edge cases (hypothesis).

Pins the *exact* boundaries: a component may sit right at the
per-component side-channel cap and a graph right at the 2x aggregate
cap; ``max_size_ratio == 1.0`` (no growth) is allowed; any non-empty
subset of the forbidden header fields is rejected.  Every graph-level
rejection is checked both through :func:`compile_policy` and
:func:`problems`, which must agree byte-for-byte.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.components import Capabilities, Component, Verdict
from repro.core.graph import ComponentGraph
from repro.core.safety import (
    FORBIDDEN_HEADER_FIELDS,
    MAX_EXTRA_TRAFFIC_BPS,
    vet_component,
)
from repro.errors import VettingError
from repro.policy import compile_policy, problems


def make_component(name: str = "c", **caps) -> Component:
    class Probe(Component):
        capabilities = Capabilities(**caps)

        def process(self, packet, ctx):
            return Verdict.PASS

    return Probe(name)


def pass_messages(graph: ComponentGraph) -> list[str]:
    found = problems(graph)
    assert all(type(p) is VettingError for p in found)
    return [str(p) for p in found]


class TestExtraTrafficBoundary:
    def test_exact_cap_is_allowed(self):
        vet_component(make_component(extra_traffic_bps=MAX_EXTRA_TRAFFIC_BPS))

    def test_just_over_cap_is_rejected(self):
        over = math.nextafter(MAX_EXTRA_TRAFFIC_BPS, math.inf)
        with pytest.raises(VettingError):
            vet_component(make_component(extra_traffic_bps=over))

    @given(st.floats(min_value=0.0, max_value=2 * MAX_EXTRA_TRAFFIC_BPS,
                     allow_nan=False))
    @settings(max_examples=50)
    def test_rejected_iff_over_cap(self, bps):
        comp = make_component(extra_traffic_bps=bps)
        if bps > MAX_EXTRA_TRAFFIC_BPS:
            with pytest.raises(VettingError):
                vet_component(comp)
        else:
            vet_component(comp)


class TestAggregateBoundary:
    def build(self, budgets) -> ComponentGraph:
        graph = ComponentGraph("agg")
        graph.chain(*[make_component(f"c{i}", extra_traffic_bps=b)
                      for i, b in enumerate(budgets)])
        return graph

    def test_exact_double_cap_is_allowed(self):
        compile_policy(self.build([MAX_EXTRA_TRAFFIC_BPS, MAX_EXTRA_TRAFFIC_BPS]))

    def test_just_over_double_cap_is_rejected(self):
        graph = self.build([MAX_EXTRA_TRAFFIC_BPS, MAX_EXTRA_TRAFFIC_BPS,
                            1.0])
        with pytest.raises(VettingError):
            compile_policy(graph)

    @given(st.lists(st.floats(min_value=0.0,
                              max_value=MAX_EXTRA_TRAFFIC_BPS,
                              allow_nan=False),
                    min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_rejected_iff_sum_over_double_cap(self, budgets):
        graph = self.build(budgets)
        # the aggregate check sums the same way the compiler does
        total = sum(c.capabilities.extra_traffic_bps
                    for c in graph.components())
        if total > 2 * MAX_EXTRA_TRAFFIC_BPS:
            with pytest.raises(VettingError) as err:
                compile_policy(graph)
            assert pass_messages(graph) == [str(err.value)]
        else:
            compile_policy(graph)
            assert pass_messages(graph) == []


class TestForbiddenFields:
    @given(st.sets(st.sampled_from(sorted(FORBIDDEN_HEADER_FIELDS)),
                   min_size=1))
    @settings(max_examples=20)
    def test_any_forbidden_subset_is_rejected(self, fields):
        graph = ComponentGraph("hdr")
        graph.chain(make_component(modifies_headers=frozenset(fields)))
        with pytest.raises(VettingError) as err:
            compile_policy(graph)
        assert pass_messages(graph) == [str(err.value)]

    @given(st.sets(st.sampled_from(["dscp", "ecn", "flags", "payload"])))
    @settings(max_examples=20)
    def test_other_fields_are_allowed(self, fields):
        vet_component(make_component(modifies_headers=frozenset(fields)))


class TestSizeRatio:
    def test_ratio_of_exactly_one_is_allowed(self):
        vet_component(make_component(max_size_ratio=1.0))

    def test_ratio_just_over_one_is_rejected(self):
        with pytest.raises(VettingError):
            vet_component(make_component(
                max_size_ratio=math.nextafter(1.0, math.inf)))

    @given(st.floats(min_value=0.1, max_value=2.0, allow_nan=False))
    @settings(max_examples=50)
    def test_rejected_iff_growing(self, ratio):
        comp = make_component(may_shrink=ratio < 1.0, max_size_ratio=ratio)
        if ratio > 1.0:
            with pytest.raises(VettingError):
                vet_component(comp)
        else:
            vet_component(comp)

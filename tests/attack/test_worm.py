"""Tests for the worm/epidemic recruitment models."""

import numpy as np
import pytest

from repro.attack import EpidemicModel, WormOutbreak
from repro.errors import AttackConfigError
from repro.net import TopologyBuilder


def time_to_fraction(model, fraction):
    """Invert the closed-form logistic: when ``fraction`` is infected."""
    n, i0 = float(model.n_vulnerable), float(model.initial_infected)
    return float(np.log((n / i0 - 1.0) / (1.0 / fraction - 1.0)) / (model.beta * n))


class TestEpidemicModel:
    def test_monotone_growth(self):
        m = EpidemicModel(n_vulnerable=10_000, scan_rate=4000.0)
        t, i = m.curve(t_max=600.0, dt=10.0)
        assert (np.diff(i) >= -1e-9).all()
        assert i[0] == pytest.approx(m.initial_infected, rel=0.01)

    def test_saturates_at_population(self):
        m = EpidemicModel(n_vulnerable=5_000, scan_rate=10_000.0)
        assert m.infected_at(1e6) == pytest.approx(5_000, rel=1e-6)

    def test_scalar_and_array_inputs(self):
        m = EpidemicModel()
        scalar = m.infected_at(100.0)
        arr = m.infected_at(np.array([100.0]))
        assert scalar == pytest.approx(float(arr[0]))

    def test_faster_scanning_spreads_faster(self):
        slow = EpidemicModel(scan_rate=1000.0)
        fast = EpidemicModel(scan_rate=8000.0)
        assert fast.infected_at(600.0) > slow.infected_at(600.0)

    def test_invalid_parameters(self):
        with pytest.raises(AttackConfigError):
            EpidemicModel(n_vulnerable=0)
        with pytest.raises(AttackConfigError):
            EpidemicModel(n_vulnerable=5, initial_infected=10)


class TestWormOutbreak:
    def _outbreak(self, **kw):
        topo = TopologyBuilder.hierarchical(2, 2, 5, seed=1)
        model = EpidemicModel(n_vulnerable=75_000, scan_rate=4000.0)
        kw.setdefault("n_scaled", 200)
        kw.setdefault("seed", 9)
        return topo, WormOutbreak(topo, model, **kw)

    def test_agent_population_grows(self):
        topo, wo = self._outbreak()
        t_late = time_to_fraction(wo.model, 0.95)
        early = len(wo.agent_asns_at(0.0))
        late = len(wo.agent_asns_at(t_late))
        assert early <= late
        assert late >= 0.9 * 200

    def test_agents_live_in_stub_ases(self):
        topo, wo = self._outbreak()
        stubs = set(topo.stub_ases)
        t = time_to_fraction(wo.model, 0.9)
        assert set(wo.agent_asns_at(t)) <= stubs

    def test_infection_order_stable(self):
        """Hosts infected at t remain infected at t' > t."""
        topo, wo = self._outbreak()
        t1 = time_to_fraction(wo.model, 0.3)
        t2 = time_to_fraction(wo.model, 0.7)
        set1 = sorted(wo.agent_asns_at(t1))
        set2 = sorted(wo.agent_asns_at(t2))
        # multiset inclusion
        from collections import Counter

        c1, c2 = Counter(set1), Counter(set2)
        assert all(c2[a] >= n for a, n in c1.items())

    def test_deterministic(self):
        topo1, wo1 = self._outbreak(seed=3)
        topo2, wo2 = self._outbreak(seed=3)
        t = 100.0
        assert wo1.agent_asns_at(t) == wo2.agent_asns_at(t)

    def test_skew_concentrates_agents(self):
        topo, heavy = self._outbreak(skew=2.5, seed=1)
        _, flat = self._outbreak(skew=0.0, seed=1)
        t = time_to_fraction(heavy.model, 0.95)
        n_heavy = len(set(heavy.agent_asns_at(t)))
        n_flat = len(set(flat.agent_asns_at(t)))
        assert n_heavy <= n_flat

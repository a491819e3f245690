"""Tests for the SIR (patched) epidemic extension."""

import numpy as np
import pytest

from repro.attack import EpidemicModel, PatchedEpidemicModel
from repro.errors import AttackConfigError


class TestPatchedEpidemicModel:
    def test_zero_patch_rate_matches_si_model(self):
        si = EpidemicModel(n_vulnerable=10_000, scan_rate=4000.0)
        sir = PatchedEpidemicModel(n_vulnerable=10_000, scan_rate=4000.0,
                                   patch_rate=0.0)
        t, s, i, r = sir.curve(t_max=400.0, dt=0.5)
        expected = np.asarray(si.infected_at(t))
        # Euler integration vs closed form: a few percent at this dt
        mid = slice(len(t) // 4, None)
        assert np.allclose(i[mid], expected[mid], rtol=0.08)
        assert (r == 0).all()

    def test_population_conserved(self):
        m = PatchedEpidemicModel(n_vulnerable=5000, patch_rate=1e-3)
        t, s, i, r = m.curve(t_max=1000.0, dt=1.0)
        assert np.allclose(s + i + r, 5000, atol=1e-6)
        assert (s >= -1e-9).all() and (i >= -1e-9).all() and (r >= -1e-9).all()

    def test_patching_caps_the_botnet(self):
        lazy = PatchedEpidemicModel(patch_rate=1.0 / 86400.0)
        fast = PatchedEpidemicModel(patch_rate=1.0 / 600.0)
        lazy_peak = lazy.curve(t_max=2000.0)[2].max()
        fast_peak = fast.curve(t_max=2000.0)[2].max()
        assert fast_peak < lazy_peak

    def test_recovered_monotone(self):
        m = PatchedEpidemicModel(patch_rate=1e-3)
        _, _, _, r = m.curve(t_max=800.0, dt=1.0)
        assert (np.diff(r) >= -1e-9).all()

    def test_infection_eventually_declines_with_patching(self):
        m = PatchedEpidemicModel(n_vulnerable=10_000, scan_rate=4000.0,
                                 patch_rate=1.0 / 300.0)
        _, _, i, _ = m.curve(t_max=5000.0, dt=1.0)
        assert i[-1] < i.max()  # lazy patching still wins eventually

    def test_invalid_parameters(self):
        with pytest.raises(AttackConfigError):
            PatchedEpidemicModel(n_vulnerable=0)
        with pytest.raises(AttackConfigError):
            PatchedEpidemicModel(patch_rate=-1.0)

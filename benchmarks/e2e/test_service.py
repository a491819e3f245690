"""Verdict prediction, the generator's trial rule and the capacity search."""

from __future__ import annotations

import math
import time

import pytest

import bench_service as bs
from bench_host import HostSpeed


@pytest.fixture(scope="module")
def world() -> bs.World:
    return bs.World()


@pytest.mark.parametrize("spec", [bs.FASTPATH, bs.CHURN], ids=lambda s: s.name)
def test_predictor_agrees_with_facade(world, spec):
    flows = bs.make_flows(spec, seed=3)
    codes = {v: k for k, v in bs.REASON_CODES.items()}
    for (src, dst, dport), want in list(zip(flows.sequence, flows.expected))[:5000]:
        got = world.facade.check(src, dst, dport=dport).reason
        assert got == codes[want], (src, dst, dport)
    assert abs(flows.owned_check_share - spec.owned_share) < 0.01


def test_generator_records_no_failures_across_policy_swaps(world):
    flows = bs.make_flows(bs.CHURN, seed=4)
    gen = bs.Generator(flows, max_checks=10_000)
    before = world.swaps
    result = gen.run(world.facade.check, 20_000.0, 10_000, swap=world.swap)
    assert result.done == result.n == 10_000
    assert result.failures == 0
    assert world.swaps - before == 3  # before checks 0, 4096 and 8192


def test_generator_counts_wrong_and_raising_checks():
    flows = bs.make_flows(bs.FASTPATH, seed=5)
    gen = bs.Generator(flows, max_checks=4096)
    result = gen.run(bs.noop_check, math.inf, 4096)
    owned = sum(code != bs.REASON_CODES["direct"] for code in flows.expected)
    assert result.failures == owned > 0

    def broken(src, dst, *, dport=0):
        raise RuntimeError("boom")

    assert gen.run(broken, math.inf, 100).failures == 100


def test_runs_continue_the_schedule_across_its_end():
    flows = bs.make_flows(bs.CHURN, seed=8)
    flows.sequence = flows.sequence[:1000]
    flows.expected = flows.expected[:1000]
    seen = []

    def record(src, dst, *, dport=0):
        seen.append((src, dst, dport))
        return bs._NOOP_VERDICT

    gen = bs.Generator(flows, max_checks=1500)
    gen.run(record, math.inf, 700)
    gen.run(record, math.inf, 1500)
    assert seen == flows.sequence * 2 + flows.sequence[:200]
    assert gen.cursor == 200


def test_measure_reports_quiet_and_raw_numbers(world):
    flows = bs.make_flows(bs.CHURN, seed=9)
    with HostSpeed() as host:
        out = bs.measure(bs.Generator(flows), world.facade.check, 40_000.0,
                         0.3, host, swap=world.swap)
    assert out["failed"] == 0
    assert out["attempted"] == 2 * bs.BURST * out["bursts"] > 0
    assert out["capacity_per_s"] > 0 and out["latency_us"] > 0
    assert out["tail"]["samples"] == bs.BURST * out["bursts"]


def _busy_target(service_s: float):
    def check(src, dst, *, dport=0):
        end = time.perf_counter() + service_s
        while time.perf_counter() < end:
            pass
        return bs._NOOP_VERDICT
    return check


def test_trial_passes_below_and_fails_above_a_fake_service_rate():
    flows = bs.make_flows(bs.FASTPATH, seed=6)
    gen = bs.Generator(flows, max_checks=50_000)
    target = _busy_target(50e-6)  # serves 20k checks/s
    kw = {"warmup_s": 0.05, "trial_s": 0.25}
    assert any(bs.trial(gen, target, 10_000.0, **kw)["passed"] for _ in range(3))
    over = bs.trial(gen, target, 40_000.0, **kw)
    assert not over["passed"]


@pytest.mark.parametrize("true_rate", [23_456.0, 512_000.0])
@pytest.mark.parametrize("start_factor", [0.3, 0.9, 1.0, 1.1, 3.0])
def test_capacity_search_lands_within_one_grid_step(true_rate, start_factor):
    def fake_trial(rate):
        return {"rate": rate, "passed": rate <= true_rate}

    decisive, trials = bs.capacity_search(fake_trial, true_rate * start_factor)
    capacity = decisive["rate"]
    assert true_rate / bs.GRID_STEP < capacity <= true_rate
    # the refinement steps narrow it further than the grid alone
    assert capacity > true_rate / bs.GRID_STEP ** (1 / 2 ** bs.REFINE_STEPS)
    rates = {t["rate"] for t in trials}
    assert len(rates) <= 12


def test_capacity_search_reports_none_when_nothing_passes():
    decisive, trials = bs.capacity_search(
        lambda rate: {"rate": rate, "passed": False}, 50_000.0, max_gallop=3)
    assert decisive is None
    # two failures of three already rule a rate out
    assert len(trials) == 4 * 2


def test_capacity_search_needs_two_passes_of_three():
    outcomes = iter([True, False, True] + [False] * 100)
    decisive, trials = bs.capacity_search(
        lambda rate: {"rate": rate, "passed": next(outcomes)}, 50_000.0,
        refine=0)
    assert decisive is not None and decisive["rate"] == trials[2]["rate"]
    assert trials[0]["rate"] == trials[2]["rate"] < trials[3]["rate"]


def test_latency_summary_interquartile_mean():
    stats = bs.latency_summary(bs.np.array([8, 1, 7, 2, 6, 3, 5, 4], dtype=bs.np.int64))
    assert stats["samples"] == 8
    assert stats["iqm_us"] == pytest.approx(4.5e-3)
    assert stats["p50_us"] == pytest.approx(4e-3)


def test_histogram_tail_matches_exact_percentiles_within_a_bin():
    lat = bs.np.random.default_rng(0).lognormal(8.0, 1.5, 50_000).astype(bs.np.int64)
    counts = bs.np.bincount(bs.np.searchsorted(bs.LATENCY_EDGES_NS, lat),
                            minlength=len(bs.LATENCY_EDGES_NS) + 1)
    approx = bs.histogram_tail(counts)
    exact = bs.latency_summary(lat.copy())
    assert approx["samples"] == exact["samples"] == len(lat)
    for key in ("p50_us", "p99_us", "p999_us"):
        assert exact[key] <= approx[key] <= exact[key] * 1.012 + 1e-3, key

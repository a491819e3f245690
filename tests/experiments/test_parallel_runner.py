"""The parallel sweep runner must be invisible except for wall clock.

Acceptance gate for the fast-path PR: ``run_parallel`` (process-pool
fan-out over experiments) and ``parallel_map`` with ``workers > 1``
(process-pool fan-out over E3's sweep trials) must produce byte-identical
tables to the serial paths — all randomness is derived per point from the
root seed, never from shared mutable state.
"""

from repro.experiments.common import (
    ExperimentConfig,
    parallel_map,
    run_all,
    run_parallel,
)
from repro.experiments.e3_deployment_sweep import _sweep_trial, sweep_table


def render(results):
    return {exp_id: [t.to_text() for t in tables]
            for exp_id, tables in results.items()}


class TestRunParallel:
    def test_e3_byte_identical_to_serial(self):
        """The ISSUE's acceptance criterion: E3 at scale=0.25."""
        cfg = ExperimentConfig(seed=42, scale=0.25)
        serial = run_all(cfg, only=["E3"])
        parallel = run_parallel(cfg, only=["E3"], max_workers=2)
        assert render(parallel) == render(serial)

    def test_subset_and_ordering(self):
        cfg = ExperimentConfig(seed=42, scale=0.2)
        results = run_parallel(cfg, only=["E5", "E1"], max_workers=2)
        assert list(results) == ["E1", "E5"]  # sorted id order, like run_all


class TestParallelMap:
    def test_identity_with_workers(self):
        points = [(ExperimentConfig(seed=42, scale=0.2), t, 60, 20)
                  for t in range(2)]
        serial = [_sweep_trial(p) for p in points]
        fanned = parallel_map(_sweep_trial, points, workers=2)
        assert fanned == serial

    def test_sweep_table_identical_across_worker_counts(self):
        base = ExperimentConfig(seed=42, scale=0.2)
        serial = sweep_table(base)
        fanned = sweep_table(ExperimentConfig(seed=42, scale=0.2, workers=2))
        assert fanned.to_text() == serial.to_text()

    def test_serial_fallback_paths(self):
        assert parallel_map(abs, [-1, -2], workers=1) == [1, 2]
        assert parallel_map(abs, [-3], workers=8) == [3]
        assert parallel_map(abs, [], workers=8) == []

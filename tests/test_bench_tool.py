"""Tests for the micro-benchmark recorder (tools/bench.py) on synthetic
pytest-benchmark output: metric names, the ratio table and its gate."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench  # noqa: E402

#: benchmark -> median seconds: both sides of every ratio, plus one
#: benchmark outside every family
MEDIANS = {
    "test_packet_forwarding_path": 0.010,
    "test_batch_forwarding_path[1024]": 0.001,
    "test_sketch_scalar_update": 0.0009,
    "test_sketch_batch_update[1024]": 0.0001,
    "test_service_check_pipeline": 0.0026,
    "test_service_check_fastpath": 0.0002,
    "test_policy_interpreted_walk[1024]": 0.0013,
    "test_policy_compiled_batch[1024]": 0.0001,
    "test_fluid_evaluation": 0.002,
}

#: the same ratios worked out by hand: per-item numerator / denominator
EXPECTED = {
    "batch": (0.010 / 500) / (0.001 / 1024),
    "sketch": (0.0009 / 500) / (0.0001 / 1024),
    "service": (0.0026 / 256) / (0.0002 / 256),
    "policy": (0.0013 / 1024) / (0.0001 / 1024),
}


def raw(medians=MEDIANS):
    return {"machine_info": {"python_version": "3.x"}, "benchmarks": [
        {"name": name, "stats": {"median": m, "mean": m, "stddev": 0.0,
                                 "rounds": 10}}
        for name, m in medians.items()]}


def test_metric_names_match_committed_schema():
    schema = json.loads((REPO_ROOT / "tools" / "bench_schema.json").read_text())
    assert bench.schema_of(bench.normalize(raw()))["metrics"] == schema["metrics"]


def test_family_gauges_keep_their_names_and_labels():
    samples = {(name, tuple(sorted(labels.items())))
               for name, _k, labels, _v in bench.to_registry(raw()).samples()}
    assert ("bench.batch.median_s", (("batch", "1024"), (
        "benchmark", "test_batch_forwarding_path"))) in samples
    assert ("bench.service.median_s", (
        ("benchmark", "test_service_check_fastpath"),)) in samples
    # not batch-parametrized, so outside the sketch family
    assert ("bench.median_s", (
        ("benchmark", "test_sketch_scalar_update"),)) in samples


@pytest.mark.parametrize("family", sorted(EXPECTED))
def test_ratio_is_the_per_item_median_ratio(family):
    assert bench.ratio(bench.normalize(raw()), family) == pytest.approx(
        EXPECTED[family])


def test_ratio_is_none_when_a_side_is_missing():
    medians = dict(MEDIANS)
    del medians["test_policy_compiled_batch[1024]"]
    assert bench.ratio(bench.normalize(raw(medians)), "policy") is None


def run_main(monkeypatch, tmp_path, medians, *flags):
    monkeypatch.setattr(bench, "run_benchmarks", lambda _args: raw(medians))
    return bench.main(["--out", str(tmp_path / "bench.json"), *flags])


def test_check_ratio_passes_and_fails_on_the_floor(monkeypatch, tmp_path):
    assert run_main(monkeypatch, tmp_path, MEDIANS,
                    "--check-ratio", "batch=20", "--check-ratio",
                    "policy=12.5") == 0
    assert run_main(monkeypatch, tmp_path, MEDIANS,
                    "--check-ratio", "batch=1", "--check-ratio",
                    "service=14") == 1


def test_check_ratio_fails_when_a_benchmark_is_missing(monkeypatch, tmp_path):
    medians = dict(MEDIANS)
    del medians["test_service_check_fastpath"]
    assert run_main(monkeypatch, tmp_path, medians,
                    "--check-ratio", "service=1.0") != 0


@pytest.mark.parametrize("spec", ["bogus=1.0", "batch", "batch=fast"])
def test_check_ratio_rejects_malformed_names(spec):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--check-ratio", spec])
    assert exc.value.code != 0

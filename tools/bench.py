#!/usr/bin/env python3
"""Run the micro-benchmarks and record the perf trajectory.

Usage::

    python tools/bench.py                      # run, write BENCH_micro.json
    python tools/bench.py --out /tmp/now.json  # write elsewhere
    python tools/bench.py --compare old.json   # run, then print speedups
    python tools/bench.py --compare old.json --against BENCH_micro.json
                                               # compare two existing files
    python tools/bench.py --check-schema tools/bench_schema.json
                                               # fail on metric renames
    python tools/bench.py --metrics-out bench.jsonl
                                               # also dump raw JSONL samples
    python tools/bench.py --check-ratio batch=1.0 --check-ratio sketch=1.0
                                               # fail on ratio regressions

Executes ``benchmarks/test_micro.py`` under pytest-benchmark, routes the
results through a :class:`repro.obs.MetricRegistry` (``bench.*`` gauges
labelled by benchmark name — the same export pipeline the experiments
use), then distils the registry into a small, diff-friendly
``BENCH_micro.json`` at the repo root: median / mean / stddev seconds and
rounds per benchmark.  Commit the file so every PR's perf effect is
visible in review, and compare any two snapshots with ``--compare``.

``--check-schema`` compares the emitted metric names and benchmark names
against a committed schema (``tools/bench_schema.json``), so a benchmark
or metric silently renamed or dropped fails CI instead of vanishing from
the trajectory; regenerate the schema with ``--write-schema``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import MetricRegistry  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_micro.json"
DEFAULT_SCHEMA = REPO_ROOT / "tools" / "bench_schema.json"
BENCH_FILE = "benchmarks/test_micro.py"

#: The per-benchmark statistics we publish, as ``bench.<field>`` gauges,
#: mapped to pytest-benchmark's key for the same quantity.
BENCH_FIELDS = {"median_s": "median", "mean_s": "mean",
                "stddev_s": "stddev", "rounds": "rounds"}

#: One ratio per benchmark family: family -> (numerator benchmark, items
#: it moves per round, denominator benchmark, items per round).  The ratio
#: is the numerator's per-item median over the denominator's, so >1 means
#: the denominator side is cheaper per item; ``--check-ratio`` gates it.
RATIOS: dict[str, tuple[str, int, str, int]] = {
    # scalar vs batched forwarding, both over the same prebuilt fat line
    "batch": ("test_packet_forwarding_path", 500,
              "test_batch_forwarding_path[1024]", 1024),
    # per-key Count-Min adds vs one add_batch over the same keys
    "sketch": ("test_sketch_scalar_update", 500,
               "test_sketch_batch_update[1024]", 1024),
    # live facade: owned-flow pipeline vs unowned fast path
    "service": ("test_service_check_pipeline", 256,
                "test_service_check_fastpath", 256),
}

#: ``test_<family>_*`` benchmarks publish ``bench.<family>.<field>`` gauges
#: labelled by benchmark, so each family stays a separate dashboard
#: dimension.  A family whose ratio compares batch sizes (its denominator
#: ends in ``[N]``) admits only batch-parametrized members and labels them
#: with the batch size as well.
_FAMILY_NAME = {
    family: re.compile(rf"^(?P<benchmark>test_{family}_\w+)"
                       + (r"\[(?P<batch>\d+)\]$" if den.endswith("]")
                          else "$"))
    for family, (_num, _num_items, den, _den_items) in RATIOS.items()
}


def _family_of(name: str) -> tuple[str | None, dict[str, str]]:
    """A benchmark's family (None for none) and its gauge labels."""
    for family, pattern in _FAMILY_NAME.items():
        match = pattern.match(name)
        if match:
            labels = {k: v for k, v in match.groupdict().items() if v}
            return family, labels
    return None, {"benchmark": name}


def run_benchmarks(pytest_args: list[str]) -> dict:
    """Run the micro-benchmark suite, returning pytest-benchmark's JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "bench.json"
        cmd = [sys.executable, "-m", "pytest", BENCH_FILE, "--benchmark-only",
               f"--benchmark-json={raw_path}", "-q", *pytest_args]
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            raise SystemExit(f"pytest-benchmark failed (exit {proc.returncode})")
        with open(raw_path) as fh:
            return json.load(fh)


def to_registry(raw: dict) -> MetricRegistry:
    """Publish pytest-benchmark output as ``bench.*`` registry gauges."""
    registry = MetricRegistry("bench")
    for bench in sorted(raw.get("benchmarks", []), key=lambda b: b["name"]):
        family, labels = _family_of(bench["name"])
        prefix = f"bench.{family}." if family else "bench."
        for field, source in BENCH_FIELDS.items():
            registry.gauge(prefix + field,
                           help=f"pytest-benchmark {field} per "
                                f"{family or 'plain'} benchmark",
                           **labels).set(bench["stats"][source])
    return registry


def normalize(raw: dict) -> dict:
    """Distil the registry view to stable medians per benchmark."""
    registry = to_registry(raw)
    benchmarks: dict[str, dict] = {}
    for name, _kind, labels, value in registry.samples(include_timing=True):
        key = labels["benchmark"]
        if "batch" in labels:
            key += f"[{labels['batch']}]"
        benchmarks.setdefault(key, {})[name.rsplit(".", 1)[1]] = value
    info = raw.get("machine_info", {})
    return {
        "suite": BENCH_FILE,
        "generated_by": "tools/bench.py",
        "python": info.get("python_version"),
        "benchmarks": {name: dict(sorted(fields.items()))
                       for name, fields in sorted(benchmarks.items())},
    }


def schema_of(normalized: dict) -> dict:
    """The name-level shape of a snapshot: metric names + benchmark names."""
    prefixes = {"bench."} | {
        f"bench.{family}." for family, _ in map(_family_of,
                                                normalized["benchmarks"])
        if family}
    return {
        "metrics": sorted(prefix + field for prefix in prefixes
                          for field in BENCH_FIELDS),
        "benchmarks": sorted(normalized["benchmarks"]),
    }


def ratio(normalized: dict, family: str) -> float | None:
    """The family's per-item ratio (see :data:`RATIOS`); ``None`` when
    either benchmark is absent (e.g. a run filtered with ``-k``)."""
    num, num_items, den, den_items = RATIOS[family]
    benches = normalized["benchmarks"]
    if num not in benches or den not in benches:
        return None
    return ((benches[num]["median_s"] / num_items)
            / (benches[den]["median_s"] / den_items))


def _ratio_floor(spec: str) -> tuple[str, float]:
    """Parse ``--check-ratio NAME=MIN``."""
    family, sep, floor = spec.partition("=")
    if not sep or family not in RATIOS:
        raise argparse.ArgumentTypeError(
            f"expected NAME=MIN with NAME one of {sorted(RATIOS)}, got {spec!r}")
    try:
        return family, float(floor)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad floor in {spec!r}") from None


def check_schema(normalized: dict, schema_path: Path) -> list[str]:
    """Differences between the emitted names and the committed schema."""
    with open(schema_path) as fh:
        want = json.load(fh)
    have = schema_of(normalized)
    problems = []
    for key in ("metrics", "benchmarks"):
        missing = sorted(set(want.get(key, ())) - set(have[key]))
        extra = sorted(set(have[key]) - set(want.get(key, ())))
        if missing:
            problems.append(f"{key} missing vs schema: {missing}")
        if extra:
            problems.append(f"{key} not in schema (rename? run "
                            f"--write-schema): {extra}")
    return problems


def _medians(snapshot: dict) -> dict:
    """Benchmark name -> stats, accepting normalized or raw pytest JSON."""
    if isinstance(snapshot.get("benchmarks"), list):
        snapshot = normalize(snapshot)
    return snapshot["benchmarks"]


def compare(baseline: dict, current: dict) -> str:
    """Render a speedup table: baseline medians vs current medians."""
    base = _medians(baseline)
    cur = _medians(current)
    lines = [f"{'benchmark':42} {'before':>12} {'after':>12} {'speedup':>8}"]
    for name in sorted(set(base) | set(cur)):
        if name not in base or name not in cur:
            only = "before only" if name in base else "after only"
            lines.append(f"{name:42} {only:>34}")
            continue
        b, c = base[name]["median_s"], cur[name]["median_s"]
        ratio = b / c if c else float("inf")
        lines.append(f"{name:42} {b * 1e6:10.1f}us {c * 1e6:10.1f}us "
                     f"{ratio:7.2f}x")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"normalized output path (default {DEFAULT_OUT})")
    parser.add_argument("--compare", type=Path, metavar="BASELINE",
                        help="print a speedup table against this snapshot")
    parser.add_argument("--against", type=Path, metavar="CURRENT",
                        help="with --compare: use this existing snapshot "
                             "instead of running the suite")
    parser.add_argument("--check-schema", type=Path, metavar="SCHEMA",
                        help="fail unless emitted metric/benchmark names "
                             f"match this schema (e.g. {DEFAULT_SCHEMA})")
    parser.add_argument("--write-schema", type=Path, metavar="SCHEMA",
                        help="write the emitted name schema here and exit 0")
    parser.add_argument("--metrics-out", type=Path, metavar="FILE",
                        help="also dump the registry samples as JSONL")
    parser.add_argument("--check-ratio", type=_ratio_floor, action="append",
                        default=[], metavar="NAME=MIN",
                        help="fail unless the NAME ratio is at least MIN; "
                             f"repeatable (NAME one of {', '.join(RATIOS)})")
    parser.add_argument("pytest_args", nargs="*",
                        help="extra arguments forwarded to pytest (prefix "
                             "with -- to separate)")
    args = parser.parse_args(argv)

    if args.compare and args.against:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        with open(args.against) as fh:
            current = json.load(fh)
        print(compare(baseline, current))
        return 0

    raw = run_benchmarks(args.pytest_args)
    normalized = normalize(raw)
    args.out.write_text(json.dumps(normalized, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({len(normalized['benchmarks'])} benchmarks)")
    if args.metrics_out:
        args.metrics_out.write_text(to_registry(raw).to_jsonl())
        print(f"wrote {args.metrics_out}")
    if args.write_schema:
        args.write_schema.write_text(
            json.dumps(schema_of(normalized), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.write_schema}")
    if args.check_schema:
        problems = check_schema(normalized, args.check_schema)
        if problems:
            for problem in problems:
                print(f"schema check: {problem}", file=sys.stderr)
            return 1
        print(f"schema check: ok ({args.check_schema})")
    for family, floor in args.check_ratio:
        num, _, den, _ = RATIOS[family]
        value = ratio(normalized, family)
        if value is None:
            print(f"{family} ratio: {num} or {den} missing from this run",
                  file=sys.stderr)
            return 1
        print(f"{family} ratio: {den} is {value:.1f}x cheaper per item than "
              f"{num} (floor {floor:g}x)")
        if value < floor:
            print(f"{family} ratio: {value:.2f} below floor {floor:g}",
                  file=sys.stderr)
            return 1
    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        print(compare(baseline, normalized))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

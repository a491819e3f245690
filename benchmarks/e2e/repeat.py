#!/usr/bin/env python3
"""Repeatability check: two independent sets of runs of every workload.

Usage (from the repository root)::

    python3 benchmarks/e2e/repeat.py --sets 2 --runs 10
    python3 benchmarks/e2e/repeat.py --sets 2 --runs 10 --out benchmarks/e2e/BENCH_e2e.json

Each run is ``run.py`` in a fresh process with its own seed (set ``s``,
run ``r`` uses seed ``1 + s * runs + r``); within a run index the
workloads go round-robin, so a slow spell of the host hits them alike.
For every end-to-end metric the tool prints each set's median and
quartiles, and the spread (interquartile range over median).  It exits 1
when, on any workload, the two sets' medians differ by more than the
metric's bound in BENCHMARK.json, when a set's spread exceeds the bound
(``setup_s`` excepted), when a run is not correct, or when the traced
runs (one per workload) leave a listed trace entry point unhit or
attribute less than 90% of their time to named layers.  Last, it runs
each service workload once with ``--search`` for the latency-limited
capacity, which is recorded but not checked.
"""

from __future__ import annotations

import argparse
import json
import platform
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"
#: Seed of the traced runs (and of the EXPERIMENTS.md check).
TRACE_SEED = 42


def run_once(workload: str, seed: int, seconds: float, trace: int,
             workdir: Path, *extra: str) -> dict:
    out = workdir / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
           *extra]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    detail = json.loads(out.read_text())
    detail["run_s"] = time.perf_counter() - t0
    return detail


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write the snapshot JSON here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    problems: list[str] = []
    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)]
                                         for w in workloads}
    traced: dict[str, dict] = {}
    searched: dict[str, dict] = {}
    # per-run detail files stay inside the checkout, like everything else
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".repeat-") as tmp:
        workdir = Path(tmp)
        for s in range(args.sets):
            for r in range(args.runs):
                seed = 1 + s * args.runs + r
                for w in workloads:
                    d = run_once(w, seed, seconds, 0, workdir)
                    runs[w][s].append(d)
                    if not d["correct"]:
                        problems.append(f"{w} seed {seed}: not correct "
                                        f"({d['failed']}/{d['attempted']} failed)")
                    print(f"set {s + 1} run {r + 1} {w} seed {seed}: "
                          + ", ".join(f"{k}={v:.6g}" for k, v in
                                      sorted(d["metrics"].items()))
                          + f" ({d['run_s']:.1f} s)", flush=True)
        for w in workloads:
            d = run_once(w, TRACE_SEED, seconds, 1, workdir)
            traced[w] = d
            if not d["correct"]:
                problems.append(f"{w} traced: not correct")
            print(f"traced {w}: coverage {d['metrics']['trace.coverage']:.3f}, "
                  f"overhead x{d['metrics']['trace.overhead']:.2f} "
                  f"({d['run_s']:.1f} s)", flush=True)
        for w in workloads:
            if w.startswith("service-"):
                d = run_once(w, TRACE_SEED, seconds, 0, workdir, "--search")
                searched[w] = d["extras"]["search"]
                print(f"searched {w}: latency-limited capacity "
                      f"{searched[w]['capacity_per_s']} checks/s after "
                      f"{len(searched[w]['trials'])} trials ({d['run_s']:.1f} s)",
                      flush=True)

    report: dict[str, dict] = {}
    for w in workloads:
        report[w] = {}
        print(f"\n{w}")
        for name, spec in metrics.items():
            sets = [summary([d["metrics"][name] for d in runs[w][s]])
                    for s in range(args.sets)]
            worst = max((abs(worse_by(sets[0]["median"], st["median"], spec["better"]))
                         for st in sets[1:]), default=0.0)
            widest = max(st["spread"] for st in sets)
            ok = worst <= spec["bound"] and (name == "setup_s"
                                             or widest <= spec["bound"])
            report[w][name] = {"unit": spec["unit"], "bound": spec["bound"],
                               "sets": sets, "medians_differ_by": worst, "ok": ok}
            cells = "  ".join(f"median {st['median']:.6g} [{st['q1']:.6g}, "
                              f"{st['q3']:.6g}] spread {st['spread']:.3f}"
                              for st in sets)
            print(f"  {name} ({spec['unit']}, bound {spec['bound']}): {cells}  "
                  f"medians differ by {worst:.3f} {'ok' if ok else 'FAIL'}")
            if not ok:
                problems.append(f"{w} {name}: medians differ by {worst:.3f}, "
                                f"widest spread {widest:.3f}, bound {spec['bound']}")
    unhit = set.intersection(*(set(d["trace"]["unhit"]) for d in traced.values()))
    if unhit:
        problems.append(f"trace entry points hit by no workload: {sorted(unhit)}")

    if args.out:
        snapshot = {
            "generated_by": "benchmarks/e2e/repeat.py",
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(), "cpus": os.cpu_count()},
            "config": {"sets": args.sets, "runs": args.runs, "seconds": seconds,
                       "seeds": [1, args.sets * args.runs],
                       "trace_seed": TRACE_SEED},
            "untraced": {w: {"metrics": report[w], "runs": [
                {"seed": d["seed"], "metrics": d["metrics"], "extras": _extras(d)}
                for s in runs[w] for d in s]} for w in workloads},
            "traced": {w: {"seed": d["seed"], "metrics": d["metrics"],
                           "layers": d["trace"]["layers"],
                           "top_entries": d["trace"]["entries"][:25],
                           "edges": d["trace"]["edges"]}
                       for w, d in traced.items()},
            "searched": searched,
            "unhit_entry_points": sorted(unhit),
            "problems": problems,
        }
        args.out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {args.out}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _extras(detail: dict) -> dict:
    """The ungated numbers worth keeping from one run."""
    extras = detail["extras"]
    kept = ({"tail", "raw_capacity_per_s", "raw_latency_us", "bursts"}
            if "tail" in extras else {"exp_s", "pass_s", "quiet_pass_s", "reference"})
    return {"raw_setup_s": detail["raw_setup_samples_s"],
            **{k: extras[k] for k in kept}}


if __name__ == "__main__":
    raise SystemExit(main())

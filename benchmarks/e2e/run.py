#!/usr/bin/env python3
"""End-to-end benchmark: table regeneration time and live-check capacity.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload tables-e2 --seed 42 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --workload service-churn --seed 7 --trace 1
    python3 benchmarks/e2e/run.py ... --out result.json   # full detail

Workloads: ``tables-e2``, ``tables-rest`` (experiment passes at scale
1.0), ``service-fastpath``, ``service-churn`` (bursts of checks against
one ``ServiceFacade``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is a separate run that wraps each layer's entry points and
reports per-layer metrics instead.  ``--search`` adds, on the service
workloads, the latency-limited open-loop capacity search (reported in
``--out`` only).  The program builds nothing: it runs the ``repro``
sources under ``src/`` of the checkout it sits in, and exits with status
2 when they are missing.

Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md beside this file defines the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_host import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

TABLE_WORKLOADS = ("tables-e2", "tables-rest")
SERVICE_WORKLOADS = ("service-fastpath", "service-churn")
WORKLOADS = TABLE_WORKLOADS + SERVICE_WORKLOADS

#: Set-up is measured in fresh processes, this many times, median taken.
SETUP_SAMPLES = 3
#: One table pass takes about this long; a run makes
#: ``round(seconds / NOMINAL_PASS_S)`` passes (at least one), so the work
#: per run is fixed and does not depend on how fast the passes are.
NOMINAL_PASS_S = 7.0
#: Seconds of untraced service bursts a traced run measures first, as
#: the base of its tracing overhead.
TRACE_BASE_S = 2.0
#: No-op generator calibration: a closed loop for ns/check, and a paced
#: run for the generator's own lateness.
CALIBRATE_CHECKS = 200_000
CALIBRATE_RATE, CALIBRATE_N = 200_000.0, 100_000
#: A traced run fails when named layers cover less of its wall time.
MIN_COVERAGE = 0.90

E2E_UNITS = {"setup_s": "s", "latency_ms": "ms", "capacity_per_s": "1/s",
             "rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    from bench_trace import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_share"] = "ratio"
    units.update({
        "other.self_share": "ratio",
        "sim.events": "count",
        "link.packets": "count",
        "link.drop_ratio": "ratio",
        "link.stats_share": "ratio",
        "decision.cache_hit_ratio": "ratio",
        "decision.miss_share": "ratio",
        "policy.compiles": "count",
        "policy.compile_share": "ratio",
        "policy.exec_share": "ratio",
        "policy.swap_share": "ratio",
        "control.store_writes": "count",
        "scenario.build_share": "ratio",
        "service.redirect_share": "ratio",
        "gen.ns_per_check": "ns",
        "gen.late_max_ms": "ms",
        "trace.overhead": "ratio",
        "trace.coverage": "ratio",
        "trace.wall_s": "s",
    })
    return units


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ set-up
def prepare(workload: str, seed: int):
    """Everything a run needs before its first timed operation."""
    if workload in TABLE_WORKLOADS:
        import bench_tables

        return bench_tables.runners(workload)
    import bench_service

    spec = bench_service.WORKLOADS[workload]
    world = bench_service.World()
    flows = bench_service.make_flows(spec, seed)
    return spec, world, flows


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(quiet, raw) wall times of fresh processes that import and
    prepare, then exit."""
    quiet, raw = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    with HostSpeed() as host:
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter_ns()
            subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                           stdout=subprocess.DEVNULL)
            t1 = time.perf_counter_ns()
            raw.append((t1 - t0) / 1e9)
            quiet.append(raw[-1] * host.speed(t0, t1))
    return quiet, raw


def calibrate_generator() -> dict:
    """The pacing loop against a no-op target: its cost per check, and
    how late it runs with nothing else to do."""
    import bench_service as bs

    gen = bs.Generator(bs.make_flows(bs.FASTPATH, 0), max_checks=CALIBRATE_CHECKS)
    closed = gen.run(bs.noop_check, math.inf, CALIBRATE_CHECKS)
    paced = gen.run(bs.noop_check, CALIBRATE_RATE, CALIBRATE_N)
    return {"ns_per_check": closed.elapsed_ns / closed.done,
            "late_max_ms": paced.late_max_ns / 1e6}


# ------------------------------------------------------------------ tables
def run_tables(args, experiments) -> dict:
    import bench_tables

    ids = list(experiments)
    source, want = bench_tables.reference(args.workload, args.seed, ids)
    # a traced run makes one untraced pass, then one traced pass
    passes = 2 if args.trace else max(1, round(args.seconds / NOMINAL_PASS_S))
    walls, quiet, per_exp, got = [], [], [], []
    tracer = None
    for p in range(passes):
        if args.trace and p == passes - 1:
            from bench_trace import Tracer

            tracer = Tracer()
            with tracer:
                gen_cal = calibrate_generator()
                wall, times, tables = bench_tables.run_pass(
                    experiments, args.seed,
                    wrap=lambda i, fn: tracer.wrap(fn, "experiment", f"experiment:{i}"))
            print(f"pass {p + 1}/{passes}: {wall:.3f} s (traced)", flush=True)
        else:
            with HostSpeed() as host:
                t0 = time.perf_counter_ns()
                wall, times, tables = bench_tables.run_pass(experiments, args.seed)
                speed = host.speed(t0, time.perf_counter_ns())
            quiet.append(wall * speed)
            print(f"pass {p + 1}/{passes}: {wall:.3f} s at host speed "
                  f"{speed:.2f} -> {quiet[-1]:.3f} quiet s", flush=True)
        walls.append(wall)
        per_exp.append(times)
        got.append(tables)
    reference = want if want is not None else got[0]
    bad = [bench_tables.mismatches(tables, reference) for tables in got]
    if want is not None:  # the run must also agree with itself
        bad = [sorted(set(b) | set(bench_tables.mismatches(t, got[0])))
               for b, t in zip(bad, got)]
    if args.write_golden:
        path = bench_tables.write_golden(args.workload, args.seed, got[0])
        print(f"wrote {path}")
    failed = sum(len(b) for b in bad)
    attempted = len(reference) * len(got)
    pass_digest = bench_tables.digest(sorted(got[0].items()))
    print(f"tables: {len(got[0])} per pass, checked against {source}; "
          f"digest {pass_digest[:16]}; mismatched: "
          f"{sorted({t for b in bad for t in b}) or 'none'}")
    pass_s = statistics.median(quiet)
    extras = {
        "reference": source, "pass_digest": pass_digest, "pass_s": walls,
        "quiet_pass_s": quiet,
        "exp_s": {f"exp.{i}_s": statistics.median(t[i] for t in per_exp)
                  for i in ids},
        "mismatched": sorted({t for b in bad for t in b}),
    }
    result = {"attempted": attempted, "failed": failed, "extras": extras}
    if tracer is None:
        result["metrics"] = {
            "latency_ms": pass_s * 1e3,
            "capacity_per_s": len(reference) / pass_s,
            "rss_mb": peak_rss_mb(),
        }
    else:
        result["metrics"] = layer_metrics(tracer, gen_cal,
                                          overhead=walls[-1] / walls[0],
                                          redirect_share=0.0)
        result["trace"] = trace_detail(tracer)
    return result


# ----------------------------------------------------------------- service
def run_service(args, prepared) -> dict:
    import bench_service as bs

    spec, world, flows = prepared
    gen = bs.Generator(flows)
    if not args.trace:
        with HostSpeed() as host:
            result = service_bursts(args, bs, spec, world, gen, host)
        extras = result["extras"]
        result["metrics"] = {
            "latency_ms": extras["latency_us"] / 1e3,
            "capacity_per_s": extras["capacity_per_s"],
            "rss_mb": peak_rss_mb(),
        }
        if args.search:
            search_capacity(bs, spec, world, flows, result)
        return result

    from bench_trace import Tracer
    from repro.obs import scoped

    tracer = Tracer()
    with HostSpeed() as host:
        # untraced bursts first: the base of the tracing overhead
        base = service_bursts(args, bs, spec, world, gen, host, TRACE_BASE_S)
        with scoped() as registry, tracer:
            # a second world, built traced: the compiles live in set-up
            world = bs.World()
            gen_cal = calibrate_generator()
            result = service_bursts(args, bs, spec, world, gen, host)
    snap = registry.snapshot()
    checks = sum(v for k, v in snap.items() if k.startswith("service.checks"))
    redirect_share = snap.get("service.redirected", 0) / checks if checks else 0.0
    overhead = base["extras"]["capacity_per_s"] / result["extras"]["capacity_per_s"]
    result["attempted"] += base["attempted"]
    result["failed"] += base["failed"]
    result["metrics"] = layer_metrics(tracer, gen_cal, overhead=overhead,
                                      redirect_share=redirect_share)
    result["trace"] = trace_detail(tracer)
    return result


def service_bursts(args, bs, spec, world, gen, host, seconds=None) -> dict:
    """Alternating closed-loop and reference-rate bursts (see
    bench_service.measure)."""
    swap = world.swap if spec.swaps else None
    out = bs.measure(gen, world.facade.check, spec.reference_rate,
                     seconds or args.seconds, host, swap=swap)
    tail = out["tail"]
    print(f"{out['bursts']} burst pairs of {bs.BURST} checks: capacity "
          f"{out['capacity_per_s']:,.0f} quiet ({out['raw_capacity_per_s']:,.0f} raw) "
          f"checks/s; at {spec.reference_rate:,.0f}/s latency iqm "
          f"{out['latency_us']:.3f} us quiet ({out['raw_latency_us']:.3f} raw), "
          f"p50 {tail['p50_us']:.3f} us, p99 {tail['p99_us']:.1f} us, "
          f"p999 {tail['p999_us']:.1f} us ({tail['samples']} samples), "
          f"generator late by up to {tail['late_max_ms']:.2f} ms", flush=True)
    attempted, failed = out.pop("attempted"), out.pop("failed")
    out.update(owned_check_share=gen.flows.owned_check_share, swaps=world.swaps)
    return {"attempted": attempted, "failed": failed, "extras": out}


def search_capacity(bs, spec, world, flows, result: dict) -> None:
    """The latency-limited open-loop capacity (bench_service.capacity_search),
    starting from the raw closed-loop rate just measured."""
    gen = bs.Generator(flows, max_checks=bs.SEARCH_MAX_CHECKS)
    swap = world.swap if spec.swaps else None
    extras = result["extras"]
    decisive, trials = bs.capacity_search(
        lambda rate: bs.trial(gen, world.facade.check, rate, swap=swap),
        extras["raw_capacity_per_s"])
    for t in trials:
        result["attempted"] += t["checks"]
        result["failed"] += t["failures"]
    extras["search"] = {"capacity_per_s": decisive["rate"] if decisive else None,
                        "trials": trials}
    print(f"latency-limited capacity: "
          f"{decisive['rate'] if decisive else 0:,.0f} checks/s after "
          f"{len(trials)} trials", flush=True)


# ------------------------------------------------------------------- trace
def layer_metrics(tracer, gen_cal: dict, *, overhead: float,
                  redirect_share: float) -> dict:
    from bench_trace import LAYERS, OTHER

    wall = tracer.wall_ns or 1
    totals = tracer.layer_totals()
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = totals[layer]["calls"]
        m[f"{layer}.self_share"] = totals[layer]["self_ns"] / wall
    m["other.self_share"] = totals[OTHER]["self_ns"] / wall

    def calls(entry: str) -> int:
        return tracer.entry_totals(entry)[0]

    def share(entry: str) -> float:
        return tracer.entry_totals(entry)[1] / wall

    packets = tracer.counters["link.packets"]
    lookups = (calls("repro.service.core:DecisionCore.flow_entry")
               + calls("repro.service.core:DecisionCore.wants"))
    misses = calls("repro.service.core:DecisionCore.flow_miss")
    m.update({
        "sim.events": tracer.counters["sim.events"],
        "link.packets": packets,
        "link.drop_ratio": tracer.counters["link.drops"] / packets if packets else 0.0,
        "link.stats_share": tracer.shared_self_ns("link") / wall,
        "decision.cache_hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "decision.miss_share": share("repro.service.core:DecisionCore.flow_miss"),
        "policy.compiles": calls("repro.policy.compiler:compile_policy"),
        "policy.compile_share": share("repro.policy.compiler:compile_policy"),
        "policy.exec_share": share("repro.policy.compiler:CompiledPolicy.process"),
        "policy.swap_share": share("repro.service.facade:ServiceFacade.swap_policy"),
        "control.store_writes": (calls("repro.core.storage:InMemoryBackend.put")
                                 + calls("repro.core.storage:ReplicatedBackend.put")),
        "scenario.build_share": share("repro.scenario.build:build"),
        "service.redirect_share": redirect_share,
        "gen.ns_per_check": gen_cal["ns_per_check"],
        "gen.late_max_ms": gen_cal["late_max_ms"],
        "trace.overhead": overhead,
        "trace.coverage": tracer.coverage(),
        "trace.wall_s": tracer.wall_ns / 1e9,
    })
    return m


def trace_detail(tracer) -> dict:
    totals = tracer.layer_totals()
    return {
        "wall_s": tracer.wall_ns / 1e9,
        "layers": {k: {"calls": v["calls"], "self_s": v["self_ns"] / 1e9}
                   for k, v in totals.items()},
        "entries": tracer.entries(),
        "edges": tracer.edge_counts(),
        "unhit": tracer.unhit(),
    }


# -------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measurement length per run (default 12)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--out", type=Path, metavar="FILE",
                        help="also write the full result as JSON")
    parser.add_argument("--write-golden", action="store_true",
                        help="tables-*: record this seed's table digests "
                             "under golden/")
    parser.add_argument("--search", action="store_true",
                        help="service-*: also search the latency-limited "
                             "open-loop capacity (in --out only)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        prepare(args.workload, args.seed)
        return 0

    # set-up is an end-to-end metric: traced runs do not measure it
    setup, setup_raw = ([], []) if args.trace else measure_setup(args.workload,
                                                                  args.seed)
    prepared = prepare(args.workload, args.seed)
    # the world and the generator's inputs are long-lived: keep the cyclic
    # collector from rescanning them during timed work
    gc.collect()
    gc.freeze()
    if args.workload in TABLE_WORKLOADS:
        result = run_tables(args, prepared)
    else:
        result = run_service(args, prepared)

    metrics = result["metrics"]
    units = layer_units() if args.trace else E2E_UNITS
    correct = result["failed"] == 0 and result["attempted"] > 0
    if args.trace:
        coverage = metrics["trace.coverage"]
        if coverage < MIN_COVERAGE:
            print(f"trace: named layers cover {coverage:.1%} of traced wall "
                  f"time, below {MIN_COVERAGE:.0%}", file=sys.stderr)
            correct = False
        unhit = result["trace"]["unhit"]
        print(f"trace: coverage {coverage:.1%}, overhead x{metrics['trace.overhead']:.2f}, "
              f"{len(unhit)} entry points not hit by this workload")
    else:
        metrics["setup_s"] = statistics.median(setup)
        print(f"setup: {', '.join(f'{s:.3f}' for s in setup)} quiet s "
              f"({', '.join(f'{s:.3f}' for s in setup_raw)} raw)")
    for name in units:
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"error_rate {result['failed'] / max(1, result['attempted']):.3g}")

    if args.out:
        detail = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "correct": correct, "setup_samples_s": setup,
                  "raw_setup_samples_s": setup_raw, **result}
        args.out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

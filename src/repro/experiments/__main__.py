"""Batch experiment runner.

Usage::

    python -m repro.experiments              # all experiments, full scale
    python -m repro.experiments E2 E4        # a subset
    python -m repro.experiments --scale 0.3  # faster, smaller
    python -m repro.experiments --markdown   # EXPERIMENTS.md-ready output
    python -m repro.experiments -j 8         # fan out across 8 processes

Parallel runs produce byte-identical tables to serial ones: every
experiment derives all randomness from the root seed, so ``-j`` only
changes the wall clock.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.errors import ReproError
from repro.experiments.common import (ExperimentConfig, run_all,
                                     run_parallel, selected_ids)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments",
                                     description=__doc__)
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids to run (default: all)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size multiplier for workload knobs")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--markdown", action="store_true",
                        help="emit GitHub-flavoured markdown tables")
    parser.add_argument("--parallel", "-j", type=int, default=1, metavar="N",
                        nargs="?", const=os.cpu_count() or 1,
                        help="fan experiments (and their sweeps) out across "
                             "N worker processes (default 1 = serial; bare "
                             "-j uses all cores)")
    args = parser.parse_args(argv)

    workers = max(1, args.parallel or 1)
    cfg = ExperimentConfig(seed=args.seed, scale=args.scale, workers=workers)
    try:
        only = selected_ids(args.experiments or None)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    if workers > 1:
        results = run_parallel(cfg, only=only, max_workers=workers)
    else:
        results = run_all(cfg, only=only)
    for exp_id, tables in results.items():
        for table in tables:
            print(table.to_markdown() if args.markdown else table.to_text())
            print()
    elapsed = time.perf_counter() - started
    print(f"# ran {sum(len(t) for t in results.values())} tables from "
          f"{len(results)} experiments in {elapsed:.1f}s "
          f"(scale={args.scale})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

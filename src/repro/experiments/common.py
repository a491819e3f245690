"""Shared experiment scaffolding: configuration, registry, batch runners.

Two execution modes share one code path: :func:`run_all` executes
experiments serially in-process; :func:`run_parallel` fans the same runners
out across a :class:`~concurrent.futures.ProcessPoolExecutor`.  Every
experiment derives its randomness from ``(cfg.seed, labels...)`` via
:func:`repro.util.rng.derive_rng`, so the two modes produce byte-identical
tables — parallelism only changes the wall clock, never the science.

:func:`parallel_map` gives individual experiments the same guarantee for
their *inner* sweep loops (e.g. the E3 deployment-sweep trials): each work
item carries its own derived seed, results come back in submission order,
and the serial path is taken automatically when it cannot or should not
fork (one worker, one item, already inside a pool worker).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.errors import ReproError
from repro.util.tables import Table

__all__ = ["ExperimentConfig", "register", "registry", "selected_ids",
           "run_all", "run_parallel", "parallel_map"]

_X = TypeVar("_X")
_Y = TypeVar("_Y")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``scale`` trades fidelity for runtime: 1.0 is the full (paper-shaped)
    configuration used for EXPERIMENTS.md; benchmarks use smaller scales.
    ``workers`` caps intra-experiment fan-out (sweep trials); 1 keeps every
    loop serial.  Results are identical either way — see
    :func:`parallel_map`.
    """

    seed: int = 42
    scale: float = 1.0
    workers: int = 1

    def scaled(self, n: int, minimum: int = 1) -> int:
        """Scale an integer knob, keeping it at least ``minimum``."""
        return max(minimum, int(round(n * self.scale)))

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)

    def with_workers(self, workers: int) -> "ExperimentConfig":
        return replace(self, workers=max(1, workers))


_REGISTRY: dict[str, Callable[[ExperimentConfig], list[Table]]] = {}


def register(experiment_id: str):
    """Decorator registering an experiment's runner under its id."""

    def wrap(fn: Callable[[ExperimentConfig], list[Table]]):
        _REGISTRY[experiment_id] = fn
        return fn

    return wrap


def _discover() -> None:
    """Import every ``e<N>_*`` module so it registers itself.

    Auto-discovery via :mod:`pkgutil` means adding an experiment file is
    enough — no import list to maintain here.
    """
    import importlib
    import pkgutil
    import re

    import repro.experiments as pkg

    for info in pkgutil.iter_modules(pkg.__path__):
        if re.match(r"e\d+_", info.name):
            importlib.import_module(f"{pkg.__name__}.{info.name}")


def registry() -> dict[str, Callable[[ExperimentConfig], list[Table]]]:
    _discover()
    return dict(_REGISTRY)


def selected_ids(only: Iterable[str] | None = None) -> list[str]:
    """The registry ids ``only`` names (all when ``None``), sorted.

    Raises :class:`~repro.errors.ReproError` on any id the registry does
    not know, so a typo runs nothing loudly instead of nothing quietly.
    """
    known = registry()
    if only is None:
        return sorted(known)
    wanted = set(only)
    unknown = sorted(wanted - known.keys())
    if unknown:
        raise ReproError(f"unknown experiment id(s) {', '.join(unknown)}; "
                         f"known: {', '.join(sorted(known))}")
    return sorted(wanted)


def run_all(cfg: ExperimentConfig | None = None,
            only: Iterable[str] | None = None) -> dict[str, list[Table]]:
    """Run all (or selected) experiments serially; returns {id: [tables]}."""
    cfg = cfg or ExperimentConfig()
    runners = registry()
    return {exp_id: runners[exp_id](cfg) for exp_id in selected_ids(only)}


def _run_one(exp_id: str, cfg: ExperimentConfig) -> list[Table]:
    """Pool-worker entry point: resolve the runner by id and execute it."""
    return registry()[exp_id](cfg)


def _in_pool_worker() -> bool:
    """True when already running inside a multiprocessing worker (no
    nested pools: daemonic workers cannot fork, and forking from a
    non-daemonic worker would oversubscribe the machine)."""
    proc = multiprocessing.current_process()
    return proc.daemon or proc.name != "MainProcess"


def run_parallel(cfg: ExperimentConfig | None = None,
                 only: Iterable[str] | None = None,
                 max_workers: Optional[int] = None) -> dict[str, list[Table]]:
    """Run experiments across a process pool; same results as :func:`run_all`.

    Each experiment id becomes one pool task; tables are collected back in
    sorted-id order.  Experiments are pure functions of ``cfg`` (all
    randomness is derived from ``cfg.seed``), so the output is byte-identical
    to the serial runner's.  Falls back to :func:`run_all` when a pool
    cannot be created (single-process environments, nested workers).
    """
    cfg = cfg or ExperimentConfig()
    ids = selected_ids(only)
    if _in_pool_worker():
        return run_all(cfg, only=ids)
    try:
        with ProcessPoolExecutor(max_workers=max_workers or os.cpu_count()) as pool:
            futures = {exp_id: pool.submit(_run_one, exp_id, cfg)
                       for exp_id in ids}
            return {exp_id: futures[exp_id].result() for exp_id in ids}
    except (OSError, PermissionError) as exc:  # pragma: no cover - env-specific
        print(f"# run_parallel: process pool unavailable ({exc}); "
              f"running serially", file=sys.stderr)
        return run_all(cfg, only=ids)


def parallel_map(fn: Callable[[_X], _Y], items: Sequence[_X],
                 workers: Optional[int] = None) -> list[_Y]:
    """Order-preserving map over independent sweep points.

    Fans out across a process pool when ``workers > 1`` and it is safe to
    fork; otherwise maps serially.  ``fn`` must be a picklable top-level
    function and each item must carry everything the point needs —
    including its own derived seed — so the output is identical in both
    modes.
    """
    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1 or _in_pool_worker():
        return [fn(item) for item in items]
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            return list(pool.map(fn, items))
    except (OSError, PermissionError) as exc:  # pragma: no cover - env-specific
        print(f"# parallel_map: process pool unavailable ({exc}); "
              f"running serially", file=sys.stderr)
        return [fn(item) for item in items]

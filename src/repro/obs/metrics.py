"""Typed, deterministic metric primitives and the hierarchical registry.

Four instrument kinds cover everything the simulator needs to account:

* :class:`Counter` — monotone event/byte tallies (packets sent, drops,
  retries).  ``value`` is a plain attribute so hot paths can do
  ``counter.value += 1`` with no call overhead.
* :class:`Gauge` — point-in-time values (scenario survival ratios,
  queue depths).
* :class:`Histogram` — fixed-bound bucket distributions (backoff delays).
  Buckets are chosen at declaration time, so the serialized shape is a
  deterministic function of the observations alone.
* :class:`SpanTimer` — accumulated durations from :meth:`MetricRegistry.span`
  scopes.  Timers may hold **wall-clock** readings, so they are excluded
  from the deterministic :meth:`MetricRegistry.snapshot` and reported
  separately via :meth:`MetricRegistry.timings`.

Instruments are grouped into label-keyed :class:`Family` objects inside a
:class:`MetricRegistry`.  The registry of record is *ambient*: components
resolve their instruments from :func:`get_registry` at construction time,
and :func:`scoped` pushes a fresh registry for the duration of one run —
the mechanism behind per-run isolation and the serial == parallel snapshot
contract (each pool worker builds its own scope and arrives at the same
bytes).

Metric *names* are declared once per process in the module-level
:data:`CATALOG` (via :func:`declare`), so the full schema is known from
imports alone — ``python -m repro obs`` dumps it without running anything.

Determinism contract: :meth:`MetricRegistry.snapshot` contains no
wall-clock values, its keys are sorted, and every value is derived from
the seeded simulation alone — so equal runs produce byte-equal JSON
whether executed serially, under ``parallel_map``, or on a process pool.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Union

from repro.errors import MetricError

__all__ = [
    "Counter", "Gauge", "Histogram", "SpanTimer",
    "Family", "MetricRegistry", "MetricDecl",
    "CATALOG", "declare",
    "get_registry", "default_registry", "scoped",
    "reset_metrics", "snapshot_delta",
]

#: Default cap on distinct label combinations per family.  High enough for
#: every simulated topology (hundreds of links/devices), low enough that a
#: label-cardinality bug (e.g. labelling by packet id) fails fast instead
#: of eating memory.
DEFAULT_MAX_SERIES = 65_536

Value = Union[int, float, dict]


class Counter:
    """Monotone tally.  ``value`` is public: hot paths increment it directly."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def get(self) -> Value:
        return self.value


class Gauge:
    """Point-in-time value; may go up or down."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def get(self) -> Value:
        return self.value


#: Default histogram bucket upper bounds (seconds-ish scale; +inf implied).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class Histogram:
    """Fixed-bound bucket histogram with sum and count.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything above the last bound.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise MetricError(f"histogram bounds must be sorted and non-empty: {bounds!r}")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def get(self) -> Value:
        buckets = {f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)}
        buckets["le_inf"] = self.counts[-1]
        return {"buckets": buckets, "sum": self.sum, "count": self.count}


class SpanTimer:
    """Accumulated span durations (count + total seconds).

    May hold wall-clock readings, so timers never enter the deterministic
    snapshot — see :meth:`MetricRegistry.timings`.
    """

    kind = "timer"
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0

    def get(self) -> Value:
        return {"count": self.count, "total_s": self.total}


_KINDS: dict[str, type] = {cls.kind: cls for cls in (Counter, Gauge, Histogram, SpanTimer)}


class Family:
    """All instruments sharing one metric name, keyed by label values."""

    __slots__ = ("name", "kind", "labelnames", "help", "max_series",
                 "buckets", "_children")

    def __init__(self, name: str, kind: str, labelnames: tuple = (),
                 help: str = "", max_series: int = DEFAULT_MAX_SERIES,
                 buckets: tuple = DEFAULT_BUCKETS) -> None:
        if kind not in _KINDS:
            raise MetricError(f"unknown metric kind {kind!r}; known: {tuple(_KINDS)}")
        self.name = name
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.help = help
        self.max_series = max_series
        self.buckets = tuple(buckets)
        self._children: dict[tuple, Any] = {}

    def labelled(self, fresh: bool = False, **labels: str) -> Any:
        """The child instrument for ``labels`` (created on first use).

        ``fresh=True`` replaces any existing child with a zeroed one — the
        idiom for per-object counters (a reconstructed Link or device must
        start from zero even when an earlier namesake registered first).
        """
        return self._child(labels, fresh)

    def _child(self, labels: dict, fresh: bool) -> Any:
        key: tuple = ()  # a loop, not a comprehension: no frame per call
        try:
            if len(labels) != len(self.labelnames):
                raise KeyError
            for name in self.labelnames:
                key += (str(labels[name]),)
        except KeyError:
            raise MetricError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}") from None
        child = self._children.get(key)
        if child is not None and not fresh:
            return child
        if child is None and len(self._children) >= self.max_series:
            raise MetricError(
                f"metric {self.name!r} exceeded its label-cardinality "
                f"budget ({self.max_series} series); a label is probably "
                f"unbounded (packet ids, timestamps, ...)")
        child = Histogram(self.buckets) if self.kind == "histogram" else _KINDS[self.kind]()
        self._children[key] = child
        return child

    def samples(self) -> Iterator[tuple[tuple, Any]]:
        return iter(self._children.items())

    def __len__(self) -> int:
        return len(self._children)


@dataclass(frozen=True)
class MetricDecl:
    """A process-wide metric name declaration (see :func:`declare`).

    Resolution happens per call against the *ambient* registry, so the
    same declaration yields independent instruments inside independent
    :func:`scoped` registries.
    """

    name: str
    kind: str
    labelnames: tuple = ()
    help: str = ""
    buckets: tuple = DEFAULT_BUCKETS

    def labelled(self, fresh: bool = True,
                 registry: "Optional[MetricRegistry]" = None,
                 **labels: str) -> Any:
        reg = registry if registry is not None else _stack[-1]
        family = reg._families.get(self.name)
        if (family is None or family.kind != self.kind
                or family.labelnames != self.labelnames):
            # creates the family, or raises on a shape conflict
            family = reg.family(self.name, self.kind, self.labelnames,
                                help=self.help, buckets=self.buckets)
        return family._child(labels, fresh)


#: Every metric name the codebase can emit, filled at import time.
CATALOG: dict[str, MetricDecl] = {}


def declare(name: str, kind: str, labels: tuple = (), help: str = "",
            buckets: tuple = DEFAULT_BUCKETS) -> MetricDecl:
    """Declare a metric name once per process and record it in :data:`CATALOG`.

    Re-declaring with identical shape returns the existing declaration
    (modules may be reloaded); a conflicting shape is a programming error.
    """
    if kind not in _KINDS:
        raise MetricError(f"unknown metric kind {kind!r}; known: {tuple(_KINDS)}")
    decl = MetricDecl(name, kind, tuple(labels), help, tuple(buckets))
    existing = CATALOG.get(name)
    if existing is not None:
        if (existing.kind, existing.labelnames) != (decl.kind, decl.labelnames):
            raise MetricError(
                f"metric {name!r} already declared as {existing.kind}"
                f"{existing.labelnames}, conflicting with {kind}{tuple(labels)}")
        return existing
    CATALOG[name] = decl
    return decl


def _sample_key(name: str, labelnames: tuple, labelvalues: tuple) -> str:
    if not labelnames:
        return name
    inner = ",".join(f"{n}={v}" for n, v in zip(labelnames, labelvalues))
    return f"{name}{{{inner}}}"


class MetricRegistry:
    """A hierarchy of metric families with cheap snapshot/delta views."""

    __slots__ = ("name", "_families")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._families: dict[str, Family] = {}

    # -------------------------------------------------------------- families
    def family(self, name: str, kind: str, labelnames: tuple = (), *,
               help: str = "", max_series: int = DEFAULT_MAX_SERIES,
               buckets: tuple = DEFAULT_BUCKETS) -> Family:
        """Get or create the family ``name``; shape mismatches raise."""
        family = self._families.get(name)
        if family is not None:
            if (family.kind, family.labelnames) != (kind, tuple(labelnames)):
                raise MetricError(
                    f"metric {name!r} exists as {family.kind}{family.labelnames}, "
                    f"conflicting with {kind}{tuple(labelnames)}")
            return family
        family = Family(name, kind, tuple(labelnames), help, max_series, buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, *, help: str = "", fresh: bool = False,
                **labels: str) -> Counter:
        return self.family(name, "counter", tuple(sorted(labels)),
                           help=help)._child(labels, fresh)

    def gauge(self, name: str, *, help: str = "", fresh: bool = False,
              **labels: str) -> Gauge:
        return self.family(name, "gauge", tuple(sorted(labels)),
                           help=help)._child(labels, fresh)

    def histogram(self, name: str, *, help: str = "",
                  buckets: tuple = DEFAULT_BUCKETS, fresh: bool = False,
                  **labels: str) -> Histogram:
        return self.family(name, "histogram", tuple(sorted(labels)),
                           help=help, buckets=buckets)._child(labels, fresh)

    def timer(self, name: str, *, help: str = "", fresh: bool = False,
              **labels: str) -> SpanTimer:
        return self.family(name, "timer", tuple(sorted(labels)),
                           help=help)._child(labels, fresh)

    # ----------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str, clock: Optional[Callable[[], float]] = None,
             **labels: str):
        """Scoped timing span recording into the ``name`` timer family.

        ``clock`` defaults to wall-clock ``time.perf_counter``; pass a
        simulation clock (``lambda: sim.now``) to measure simulated time.
        Either way the reading lands in a :class:`SpanTimer`, outside the
        deterministic snapshot.
        """
        if clock is None:
            from time import perf_counter as clock  # type: ignore[no-redef]
        timer = self.timer(name, **labels)
        started = clock()
        try:
            yield timer
        finally:
            timer.record(clock() - started)

    # ------------------------------------------------------------- snapshots
    def samples(self, include_timing: bool = False
                ) -> Iterator[tuple[str, str, dict, Value]]:
        """Yield ``(name, kind, labels, value)`` in sorted-name order."""
        for name in sorted(self._families):
            family = self._families[name]
            if family.kind == "timer" and not include_timing:
                continue
            for labelvalues, child in sorted(family.samples()):
                labels = dict(zip(family.labelnames, labelvalues))
                yield family.name, family.kind, labels, child.get()

    def snapshot(self, include_timing: bool = False) -> dict[str, Value]:
        """Flat ``{"name{k=v}": value}`` view, sorted keys, no wall clock.

        This is the deterministic view: equal runs give byte-equal
        ``json.dumps(snapshot(), sort_keys=True)`` regardless of execution
        mode.  ``include_timing=True`` adds timer samples for human
        consumption (and voids the determinism guarantee).
        """
        out: dict[str, Value] = {}
        for name, _kind, labels, value in self.samples(include_timing):
            family = self._families[name]
            key = _sample_key(name, family.labelnames,
                              tuple(labels[n] for n in family.labelnames))
            out[key] = value
        return out

    def timings(self) -> dict[str, Value]:
        """Timer samples only — the non-deterministic complement of
        :meth:`snapshot`."""
        out: dict[str, Value] = {}
        for name, kind, labels, value in self.samples(include_timing=True):
            if kind != "timer":
                continue
            family = self._families[name]
            key = _sample_key(name, family.labelnames,
                              tuple(labels[n] for n in family.labelnames))
            out[key] = value
        return out

    def delta(self, before: dict[str, Value],
              include_timing: bool = False) -> dict[str, Value]:
        """What changed since ``before`` (an earlier :meth:`snapshot`)."""
        return snapshot_delta(before, self.snapshot(include_timing))

    def reset(self, prefix: str = "") -> int:
        """Zero every instrument whose family name starts with ``prefix``;
        returns the number of instruments reset."""
        n = 0
        for name, family in self._families.items():
            if not name.startswith(prefix):
                continue
            for _labels, child in family.samples():
                child.reset()
                n += 1
        return n

    def schema(self) -> list[dict]:
        """The families present in *this* registry (see also :data:`CATALOG`
        for everything the process declared)."""
        return [{"name": f.name, "kind": f.kind, "labels": list(f.labelnames),
                 "help": f.help}
                for _n, f in sorted(self._families.items())]

    def to_jsonl(self, include_timing: bool = True) -> str:
        """One JSON object per sample, sorted — the uniform export format."""
        lines = []
        for name, kind, labels, value in self.samples(include_timing):
            lines.append(json.dumps(
                {"name": name, "kind": kind, "labels": labels, "value": value},
                sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricRegistry({self.name!r}, families={len(self._families)})")


def snapshot_delta(before: dict[str, Value],
                   after: dict[str, Value]) -> dict[str, Value]:
    """Numeric difference of two snapshots (new keys count from zero).

    Histogram samples diff per-field; keys missing from ``after`` are
    dropped (their instruments vanished, e.g. replaced ``fresh``).
    """
    out: dict[str, Value] = {}
    for key, now in after.items():
        prev = before.get(key)
        if isinstance(now, dict):
            prev_d = prev if isinstance(prev, dict) else {}
            prev_buckets = prev_d.get("buckets", {})
            if "buckets" in now:
                out[key] = {
                    "buckets": {b: c - prev_buckets.get(b, 0)
                                for b, c in now["buckets"].items()},
                    "sum": now["sum"] - prev_d.get("sum", 0.0),
                    "count": now["count"] - prev_d.get("count", 0),
                }
            else:
                out[key] = {k: v - prev_d.get(k, 0) for k, v in now.items()}
        else:
            out[key] = now - (prev if isinstance(prev, (int, float)) else 0)
    return out


def reset_metrics(instruments: tuple) -> None:
    """Zero a batch of instruments — the single reset path shared by
    ``Link.reset_stats`` and ``AdaptiveDevice.reset_stats``."""
    for instrument in instruments:
        instrument.reset()


# ------------------------------------------------------------------ ambient
_default = MetricRegistry("default")
_stack: list[MetricRegistry] = [_default]


def get_registry() -> MetricRegistry:
    """The ambient registry new instruments bind to."""
    return _stack[-1]


def default_registry() -> MetricRegistry:
    """The process-wide fallback registry (active outside any scope)."""
    return _default


@contextmanager
def scoped(registry: Optional[MetricRegistry] = None):
    """Push a fresh (or given) registry for the duration of the block.

    Everything constructed inside binds its instruments here, giving one
    run an isolated, deterministic snapshot::

        with scoped() as reg:
            run_scenario(spec)
            snap = reg.snapshot()
    """
    reg = registry if registry is not None else MetricRegistry("scoped")
    _stack.append(reg)
    try:
        yield reg
    finally:
        _stack.pop()

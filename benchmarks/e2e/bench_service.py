"""Live-service workloads: an open-loop check generator over one facade.

The world is fixed: 4096 subscribers own one /20 each, which tiles
10.0.0.0/8 exactly, and each subscriber installs a destination-stage
graph of two header filters (dport 7, then dport 9).  Only the flows,
their popularity and their order come from the seed.

Checks are sent in bursts of :data:`BURST`, each continuing the seeded
schedule where the last one stopped.  A burst either runs closed-loop
(every check due at once: the service rate) or paced at a fixed rate
(open loop: arrivals never wait for the service, and every check is timed
from its *scheduled* send time, so a stall makes every later check late
too).  On the churn workload every burst starts with a policy hot-swap.
Times are scaled to an uncontended host (see bench_host).

The expected ``Verdict.reason`` of each check follows from the
generator's own inputs: ``direct`` when the destination is unowned,
``filtered`` when it is owned and the dport is 7 or 9, ``processed``
otherwise.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional

import numpy as np

from bench_host import HostSpeed
from repro.core import ComponentGraph, HeaderFilter, NetworkUser, OwnershipRegistry
from repro.core.components import HeaderMatch
from repro.net import Prefix
from repro.service import ServiceFacade

SUBSCRIBERS = 4096
SUBSCRIBER_PREFIX_LEN = 20
OWNED_BLOCK = 10 << 24
FILTER_PORTS = (7, 9)
OTHER_DPORT = 80
DPORT7_SHARE = 0.10
#: Unowned addresses are drawn from 11.0.0.0 up to (not including) 224/8.
UNOWNED_LO, UNOWNED_HI = 11 << 24, 224 << 24
#: Length of the seeded check schedule of a Zipf workload (cycled).
SCHEDULE_LEN = 1 << 20

#: Checks per burst, and per policy hot-swap on the churn workload (one
#: swap per 102 ms of schedule at its 40k/s reference rate).
BURST = 4096

#: Verdict reasons as recorded per check; anything else is a failure.
REASON_CODES = {"direct": 0, "processed": 1, "filtered": 2}
FAILED = 255

#: Upper edges of the latency histogram behind the reported tail: 200
#: bins per decade (1.2% wide) from 10 ns to 100 s, so its memory does not
#: depend on how many bursts a run makes.
LATENCY_EDGES_NS = np.logspace(1, 11, 2001)

#: A paced run that falls this far behind schedule has already failed.
ABORT_LATE_NS = 250_000_000
#: The first check of a run is due this long after the run starts.
LEAD_NS = 100_000
#: A paced burst's offered rate is scaled by the host's speed over this
#: much time before it.
RECENT_NS = 50_000_000

#: Latency-limited capacity search (``run.py --search``): the highest rate
#: on a fixed x1.05 geometric grid (refined by two geometric bisections of
#: the last grid step) at which 2 of 3 trials of 0.25 s warm-up + 1 s
#: measured achieve >= 99% of the offered rate with p99 latency <= 5 ms.
GRID_BASE, GRID_STEP = 1000.0, 1.05
REFINE_STEPS = 2
WARMUP_S, TRIAL_S = 0.25, 1.0
MIN_ACHIEVED, P99_LIMIT_NS = 0.99, 5_000_000
TRIALS_PER_RATE, PASSES_NEEDED = 3, 2
#: Generator buffers for search trials, sized once so memory does not
#: grow with the rate.
SEARCH_MAX_CHECKS = 2_500_000


@dataclass(frozen=True)
class ServiceWorkload:
    """One traffic mix against the facade."""

    name: str
    owned_share: float
    n_flows: int
    #: Zipf exponent of flow popularity; None cycles the flows in order.
    zipf: Optional[float]
    #: Pass addresses as dotted quads, as middlewares receive REMOTE_ADDR.
    as_strings: bool
    #: Hot-swap one subscriber's policy every BURST checks.
    swaps: bool
    #: Fixed offered rate (checks/s) at which latency is reported.
    reference_rate: float


FASTPATH = ServiceWorkload("service-fastpath", owned_share=0.01, n_flows=4096,
                           zipf=None, as_strings=False, swaps=False,
                           reference_rate=200_000.0)
CHURN = ServiceWorkload("service-churn", owned_share=0.30, n_flows=65_536,
                        zipf=1.1, as_strings=True, swaps=True,
                        reference_rate=40_000.0)
WORKLOADS = {w.name: w for w in (FASTPATH, CHURN)}


def filter_graph(user_id: str, ports: tuple[int, ...]) -> ComponentGraph:
    """A destination-stage graph dropping the given dports, in order."""
    graph = ComponentGraph(f"svc:{user_id}")
    graph.chain(*(HeaderFilter(f"f{p}", HeaderMatch(dport=p)) for p in ports))
    return graph


class World:
    """The facade and its subscribers."""

    def __init__(self) -> None:
        self.facade = ServiceFacade(OwnershipRegistry())
        self.user_ids: list[str] = []
        shift = 32 - SUBSCRIBER_PREFIX_LEN
        for i in range(SUBSCRIBERS):
            user = NetworkUser(f"sub-{i}",
                               prefixes=[Prefix(OWNED_BLOCK | (i << shift),
                                                SUBSCRIBER_PREFIX_LEN)])
            self.facade.subscribe(user,
                                  dst_graph=filter_graph(user.user_id, FILTER_PORTS))
            self.user_ids.append(user.user_id)
        self._reversed = [False] * SUBSCRIBERS
        self.swaps = 0

    def swap(self) -> None:
        """Hot-swap the next subscriber in rotation between filter orders
        (7, 9) and (9, 7): same verdicts, but a fresh compile and a cleared
        flow cache."""
        i = self.swaps % len(self.user_ids)
        self._reversed[i] = not self._reversed[i]
        ports = FILTER_PORTS[::-1] if self._reversed[i] else FILTER_PORTS
        uid = self.user_ids[i]
        self.facade.swap_policy(uid, dst_graph=filter_graph(uid, ports))
        self.swaps += 1


def expected_reason(dst: int, dport: int) -> str:
    """The verdict reason predicted for one check (see module doc)."""
    if dst >> 24 != OWNED_BLOCK >> 24:
        return "direct"
    return "filtered" if dport in FILTER_PORTS else "processed"


def _dotted(addrs: list[int]) -> list[str]:
    return [f"{a >> 24}.{(a >> 16) & 255}.{(a >> 8) & 255}.{a & 255}"
            for a in addrs]


@dataclass
class Flows:
    """The seeded inputs: ``(src, dst, dport)`` check arguments and the
    expected reason code for every position of the (cycled) schedule."""

    sequence: list
    expected: bytes
    owned_check_share: float


def tracking_share(popularity: list[float], share: float) -> np.ndarray:
    """Flows (in popularity-rank order) chosen so that their popularity
    mass stays as close as possible to ``share`` of the mass of every
    leading run of ranks: the Zipf head and tail each get their share."""
    chosen = np.zeros(len(popularity), dtype=bool)
    mass = target = 0.0
    for rank, p in enumerate(popularity):
        target += share * p
        if abs(mass + p - target) < abs(mass - target):
            chosen[rank] = True
            mass += p
    return chosen


def make_flows(workload: ServiceWorkload, seed: int) -> Flows:
    """Seeded flows for ``workload``; ``owned_share`` of the *checks*
    (not of the flows) target a subscriber.

    Which popularity ranks are owned, and which use dport 7, is fixed by
    the workload, so every seed runs the same mix of cache hits, misses,
    owned and filtered checks; the seed draws the addresses and the
    arrival order.
    """
    rng = np.random.default_rng([seed, workload.n_flows])
    n = workload.n_flows
    if workload.zipf is None:
        popularity = np.full(n, 1.0 / n)
        order = np.arange(n)
    else:
        weights = np.arange(1, n + 1, dtype=float) ** -workload.zipf
        popularity = weights / weights.sum()
        order = rng.choice(n, size=SCHEDULE_LEN, p=popularity)
    owned = tracking_share(popularity.tolist(), workload.owned_share)
    src = rng.integers(UNOWNED_LO, UNOWNED_HI, n)
    dst = rng.integers(UNOWNED_LO, UNOWNED_HI, n)
    dst[owned] = OWNED_BLOCK + rng.integers(0, 1 << 24, int(owned.sum()))
    # every tenth rank, so the dport-7 share of checks is fixed too
    dport = np.where(np.arange(n) % round(1 / DPORT7_SHARE) == 1,
                     FILTER_PORTS[0], OTHER_DPORT)
    src_l, dst_l, dport_l = src.tolist(), dst.tolist(), dport.tolist()
    expected = bytes(REASON_CODES[expected_reason(d, p)]
                     for d, p in zip(dst_l, dport_l))
    if workload.as_strings:
        src_l, dst_l = _dotted(src_l), _dotted(dst_l)
    args = list(zip(src_l, dst_l, dport_l))
    order_l = order.tolist()
    return Flows([args[k] for k in order_l], bytes(expected[k] for k in order_l),
                 float(popularity[owned].sum()))


@dataclass
class RunResult:
    """One run: ``done`` of ``n`` checks sent (fewer when a paced run
    fell hopelessly behind), timed from their scheduled send."""

    rate: float
    n: int
    done: int
    #: ``time.perf_counter_ns()`` at which the first check was due
    start_ns: int
    elapsed_ns: int
    late_max_ns: int
    failures: int


def noop_check(src, dst, *, dport: int = 0):
    """The no-op target the generator is calibrated against."""
    return _NOOP_VERDICT


class _NoopVerdict:
    reason = "direct"


_NOOP_VERDICT = _NoopVerdict()


class Generator:
    """Open-loop check generator over one :class:`Flows` schedule.

    Each run continues the schedule where the previous one stopped.
    Latencies (ns from scheduled send) and reason codes go to buffers
    allocated once, so a run allocates nothing per check beyond what the
    target does.
    """

    def __init__(self, flows: Flows, max_checks: int = BURST) -> None:
        self.flows = flows
        self.latency = array("q", bytes(8 * max_checks))
        self.reasons = bytearray(max_checks)
        #: schedule position of the next check
        self.cursor = 0

    def run(self, check: Callable, rate: float, n: int, *,
            swap: Optional[Callable[[], None]] = None) -> RunResult:
        """Send ``n`` checks, one every ``1/rate`` s from the start.

        ``rate`` of ``math.inf`` makes every check due at the start: a
        closed loop at full speed.  ``swap`` runs before the first check
        and then before every :data:`BURST`-th.
        """
        if n > len(self.reasons):
            raise ValueError(f"{n} checks exceed the generator's buffers")
        if math.isfinite(rate):
            period = max(1, round(1e9 / rate))
            rate = 1e9 / period
            abort_late_ns = ABORT_LATE_NS
        else:
            period, abort_late_ns = 0, math.inf
        sequence = self.flows.sequence
        cycle = len(sequence)
        start = self.cursor
        # copy the first segment now: skipping to the cursor inside the
        # timed loop would make the first checks late
        segment = sequence[start:min(cycle, start + n)]
        codes = REASON_CODES
        lat, reasons = self.latency, self.reasons
        perf = time.perf_counter_ns
        late_max = 0
        next_swap = 0 if swap is not None else n
        done = n
        i = 0
        t0 = perf() + LEAD_NS
        while i < n:
            for src, dst, dport in segment:
                due = t0 + i * period
                now = perf()
                while now < due:
                    now = perf()
                if now - due > late_max:
                    late_max = now - due
                    if late_max > abort_late_ns:
                        done = i
                        break
                if i == next_swap:
                    swap()
                    next_swap += BURST
                try:
                    reasons[i] = codes[check(src, dst, dport=dport).reason]
                except Exception:  # noqa: BLE001 - a raised check is a counted failure
                    reasons[i] = FAILED
                lat[i] = perf() - due
                i += 1
            if done < n:
                break
            segment = islice(sequence, min(cycle, n - i))
        self.cursor = (start + done) % cycle
        elapsed = lat[done - 1] + (done - 1) * period if done else perf() - t0
        return RunResult(rate, n, done, t0, elapsed, late_max,
                         self._failures(start, done))

    def _failures(self, start: int, done: int) -> int:
        """Sent checks whose recorded reason is not the predicted one."""
        expected = np.frombuffer(self.flows.expected, dtype=np.uint8)
        got = np.frombuffer(self.reasons, dtype=np.uint8, count=done)
        want = expected[(start + np.arange(done)) % len(expected)]
        return int(np.count_nonzero(got != want))

    def latencies(self, result: RunResult, skip: int = 0) -> np.ndarray:
        """A copy of the last run's latencies (ns), from check ``skip`` on."""
        return np.frombuffer(self.latency, dtype=np.int64,
                             count=result.done)[skip:].copy()


def latency_summary(lat_ns: np.ndarray) -> dict:
    """Latency summary (µs); reorders ``lat_ns``.

    ``iqm_us`` is the mean of the middle half of the sorted latencies:
    unlike the median it does not jump when a class of checks (cache hits,
    owned flows) crosses half of the mix, and unlike the mean it ignores
    the stall-delayed tail.
    """
    m = len(lat_ns)
    if m == 0:
        return {"samples": 0}
    ranks = {"p50_us": 0.50, "p99_us": 0.99, "p999_us": 0.999}
    kth = {k: min(m - 1, math.ceil(q * m) - 1) for k, q in ranks.items()}
    lo, hi = m // 4, max(m // 4 + 1, (3 * m) // 4)
    lat_ns.partition(sorted({lo, hi - 1, *kth.values()}))
    stats = {k: float(lat_ns[i]) / 1e3 for k, i in kth.items()}
    stats["iqm_us"] = float(lat_ns[lo:hi].mean()) / 1e3
    stats["samples"] = m
    return stats


def histogram_tail(counts: np.ndarray) -> dict:
    """p50/p99/p999 (µs, each the upper edge of its bin) and the sample
    count of a histogram over :data:`LATENCY_EDGES_NS`."""
    total = int(counts.sum())
    cumulative = np.cumsum(counts)
    stats = {}
    for name, q in (("p50_us", 0.50), ("p99_us", 0.99), ("p999_us", 0.999)):
        k = int(np.searchsorted(cumulative, math.ceil(q * total)))
        stats[name] = float(LATENCY_EDGES_NS[min(k, len(LATENCY_EDGES_NS) - 1)]) / 1e3
    stats["samples"] = total
    return stats


def measure(gen: Generator, check: Callable, rate: float, seconds: float,
            host: HostSpeed, *, swap: Optional[Callable[[], None]] = None
            ) -> dict:
    """Alternate a closed-loop burst and a burst paced at ``rate`` for
    ``seconds``.

    Each burst is scaled by the host's mean speed over it (``host``, a
    running :class:`bench_host.HostSpeed`), so a slow spell of the host
    does not read as a slow service; the medians over bursts are the
    results.  Returns the quiet capacity (checks/s) and interquartile-mean
    latency (µs), their raw counterparts, and the latency tail over every
    paced check.
    """
    closed_ns, quiet_ns, iqm_us, quiet_iqm_us = [], [], [], []
    counts = np.zeros(len(LATENCY_EDGES_NS) + 1, dtype=np.int64)
    attempted = failed = late_max = 0
    perf = time.perf_counter_ns
    end = perf() + int(seconds * 1e9)
    while perf() < end:
        run = gen.run(check, math.inf, BURST, swap=swap)
        closed_ns.append(run.elapsed_ns / run.done)
        quiet_ns.append(closed_ns[-1] * host.speed(run.start_ns, perf()))
        attempted, failed = attempted + run.done, failed + run.failures

        # the reference rate is a quiet rate too: a host at half speed is
        # offered half the checks per second, so the service runs at the
        # same utilisation and queues as long in quiet time
        now = perf()
        run = gen.run(check, rate * host.speed(now - RECENT_NS, now), BURST,
                      swap=swap)
        attempted, failed = attempted + run.done, failed + run.failures
        late_max = max(late_max, run.late_max_ns)
        lat = gen.latencies(run)
        counts += np.bincount(np.searchsorted(LATENCY_EDGES_NS, lat),
                              minlength=len(counts))
        iqm_us.append(latency_summary(lat)["iqm_us"])
        quiet_iqm_us.append(iqm_us[-1] * host.speed(run.start_ns, perf()))
    tail = histogram_tail(counts)
    tail["late_max_ms"] = late_max / 1e6
    return {
        "attempted": attempted, "failed": failed, "bursts": len(closed_ns),
        "capacity_per_s": 1e9 / statistics.median(quiet_ns),
        "raw_capacity_per_s": 1e9 / statistics.median(closed_ns),
        "latency_us": statistics.median(quiet_iqm_us),
        "raw_latency_us": statistics.median(iqm_us),
        "closed_ns_per_check": statistics.median(closed_ns),
        "rate": rate, "tail": tail,
    }


def trial(gen: Generator, check: Callable, rate: float, *,
          swap: Optional[Callable[[], None]] = None,
          warmup_s: float = WARMUP_S, trial_s: float = TRIAL_S) -> dict:
    """One capacity trial: did the measured second keep up with ``rate``?"""
    result = gen.run(check, rate, max(1, int(rate * (warmup_s + trial_s))),
                     swap=swap)
    warmup_n = int(result.rate * warmup_s)
    out = {"rate": result.rate, "passed": False, "achieved": 0.0,
           "p99_us": math.inf, "checks": result.done,
           "failures": result.failures}
    measured = result.n - warmup_n
    if result.done < result.n or measured <= 0:
        return out
    span_ns = result.elapsed_ns - warmup_n * 1e9 / result.rate
    out["achieved"] = measured / (span_ns / 1e9)
    out["p99_us"] = latency_summary(gen.latencies(result, skip=warmup_n))["p99_us"]
    out["passed"] = (out["achieved"] >= MIN_ACHIEVED * result.rate
                     and out["p99_us"] * 1e3 <= P99_LIMIT_NS)
    return out


def grid_rate(k: float) -> float:
    """Rate of grid index ``k``; fractional indices lie between grid rates."""
    return GRID_BASE * GRID_STEP ** k


def grid_index_below(rate: float) -> int:
    """The largest grid index whose rate is <= ``rate``."""
    return math.floor(math.log(rate / GRID_BASE) / math.log(GRID_STEP) + 1e-9)


def capacity_search(run_trial: Callable[[float], dict], start_rate: float, *,
                    refine: int = REFINE_STEPS, max_gallop: int = 8
                    ) -> tuple[Optional[dict], list[dict]]:
    """Gallop along the grid from the largest rate at or below
    ``start_rate`` (1, 2, 4, ... steps) until a passing and a failing rate
    bracket the capacity, bisect the bracket down to one grid step, then
    bisect that step geometrically ``refine`` times.  A rate passes when
    :data:`PASSES_NEEDED` of up to :data:`TRIALS_PER_RATE` trials pass.

    Returns (the last passing trial at the highest rate that passed,
    every trial run); the first is None when no rate passed within
    ``max_gallop`` gallops.  The capacity is that trial's rate.
    """
    trials: list[dict] = []
    passing: dict[float, dict] = {}

    def passes(k: float) -> bool:
        ok = 0
        for attempt in range(TRIALS_PER_RATE):
            trials.append(run_trial(grid_rate(k)))
            ok += trials[-1]["passed"]
            if ok == PASSES_NEEDED:
                passing[k] = trials[-1]
                return True
            if attempt + 1 - ok > TRIALS_PER_RATE - PASSES_NEEDED:
                return False
        return False

    k = grid_index_below(start_rate)
    lo = hi = None
    if passes(k):
        lo = k
        for step in (2 ** i for i in range(max_gallop)):
            if not passes(lo + step):
                hi = lo + step
                break
            lo += step
    else:
        hi = k
        for step in (2 ** i for i in range(max_gallop)):
            if passes(hi - step):
                lo = hi - step
                break
            hi -= step
    if lo is None or hi is None:
        return passing.get(lo), trials
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    lo_f, hi_f = float(lo), float(hi)
    for _ in range(refine):
        mid = (lo_f + hi_f) / 2  # the geometric midpoint of the two rates
        if passes(mid):
            lo_f = mid
        else:
            hi_f = mid
    return passing[lo_f], trials

"""Deterministic discrete-event simulation engine.

A minimal but complete event loop: a binary heap of plain
``(time, seq, fn, args)`` tuples where ``seq`` is a monotone tiebreaker, so
runs are bit-for-bit reproducible regardless of callback identity.  All
network elements (links, hosts, attack processes, trigger components)
schedule callbacks here.

Hot-path notes: every sift comparison runs in C on the ``(time, seq)``
prefix (seqs are unique, so ``fn`` is never compared), and scheduling
allocates nothing but the heap tuple.  :meth:`Simulator.schedule_at`
returns an :class:`Event` cancel handle; per-packet callers that never
cancel use the handle-free :meth:`Simulator.push_at` it is built on.
Cancellation records the event's ``seq`` in a tombstone set, which
:meth:`Simulator.run` consults only while it is non-empty.  Tombstones are
swept by periodic heap compaction instead of lingering until their pop
time; compaction filters the backing list and re-heapifies, and because
``(time, seq)`` is a total order the pop sequence — and therefore
simulation output — is unchanged bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.metrics import declare

__all__ = ["Event", "Recurrence", "SimClock", "Simulator"]

#: Compact the heap once at least this many tombstones have accumulated
#: *and* they outnumber the live events.
_COMPACT_MIN_CANCELLED = 64

_EVENTS = declare("sim.events_processed", "counter",
                  help="events popped and executed by the event loop")
_CANCELLED = declare("sim.events_cancelled", "counter",
                     help="events cancelled before firing")
_COMPACTIONS = declare("sim.heap_compactions", "counter",
                       help="tombstone-compaction sweeps of the event heap")
_BATCH_EVENTS = declare("sim.batch_events", "counter",
                        help="packet-batch event slots scheduled")
_BATCH_PACKETS = declare("sim.batch_packets", "counter",
                         help="packets carried inside batch event slots")


class SimClock:
    """A :class:`repro.service.clock.Clock` view of a simulator's time —
    the simulated side of the service layer's clock seam."""

    __slots__ = ("_sim",)

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim

    def now(self) -> float:
        return self._sim._now


class Event:
    """Cancel handle of one scheduled callback, ordered by (time, seq).

    The heap holds only the event's plain tuple; the handle remembers
    where it sits.  ``_epoch`` ties the handle to the simulator's
    :meth:`~Simulator.reset` generation, so a handle that outlived a reset
    can never cancel the new event that reuses its ``seq``; ``_dead`` makes
    a second cancel a no-op even after compaction swept the tombstone.
    """

    __slots__ = ("time", "seq", "_sim", "_epoch", "_dead")

    def __init__(self, time: float, seq: int, sim: "Simulator") -> None:
        self.time = time
        self.seq = seq
        self._sim = sim
        self._epoch = sim._epoch
        self._dead = False

    def cancel(self) -> None:
        """Prevent the event from firing (O(1); it stays in the heap until
        the next compaction sweep or its pop time).  A no-op once the event
        has fired, was cancelled, or the simulator was reset."""
        self._sim._cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(t={self.time:.6f}, seq={self.seq})"


class Recurrence:
    """Cancel handle of a :meth:`Simulator.schedule_every` recurrence:
    :meth:`cancel` stops every later firing, including from inside the
    callback itself."""

    __slots__ = ("event", "stopped")

    def __init__(self) -> None:
        self.event: Optional[Event] = None  # the next pending firing
        self.stopped = False

    def cancel(self) -> None:
        self.stopped = True
        if self.event is not None:
            self.event.cancel()


class Simulator:
    """Discrete-event simulator with deterministic ordering.

    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> _ = sim.schedule(0.5, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = itertools.count()
        self._now = 0.0
        # seqs of cancelled events still in the heap (tombstones)
        self._cancelled: set[int] = set()
        # bumped by reset(): handles from an earlier generation are inert
        self._epoch = 0
        # registry-backed counters (unlabelled: the most recently built
        # simulator owns the family's live series — one world per run)
        self._m_processed = _EVENTS.labelled()
        self._m_cancelled = _CANCELLED.labelled()
        self._m_compactions = _COMPACTIONS.labelled()
        # batch-slot counters are created lazily on the first
        # schedule_batch(), so scalar-only runs keep byte-identical
        # registry snapshots (no extra zero-valued series)
        self._m_batch_events: Any = None
        self._m_batch_packets: Any = None
        self.running = False
        self._reset_hooks: list[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def clock(self) -> "SimClock":
        """This simulator as a :class:`repro.service.clock.Clock` — hand it
        to a :class:`~repro.service.facade.ServiceFacade` to drive the live
        decision path from simulated time."""
        return SimClock(self)

    @property
    def events_processed(self) -> int:
        """Events fired so far (updated when :meth:`run` returns)."""
        return self._m_processed.value

    @property
    def pending(self) -> int:
        """Number of events still in the heap (including cancelled ones
        not yet swept by compaction)."""
        return len(self._heap)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time:.6f} < now {self._now:.6f}")
        return Event(time, self.push_at(time, fn, args), self)

    def push_at(self, time: float, fn: Callable[..., Any], args: tuple) -> int:
        """Handle-free :meth:`schedule_at` for per-packet callers: no past
        check (``time >= now`` is the caller's contract) and no cancel
        handle.  Returns the event's ``seq``."""
        seq = next(self._seq)
        heapq.heappush(self._heap, (time, seq, fn, args))
        return seq

    @property
    def batch_events(self) -> int:
        """Batch event slots scheduled so far (0 if none ever were)."""
        return 0 if self._m_batch_events is None else self._m_batch_events.value

    @property
    def batch_packets(self) -> int:
        """Packets carried by batch event slots so far."""
        return 0 if self._m_batch_packets is None else self._m_batch_packets.value

    def schedule_batch(self, delay: float, fn: Callable[..., Any], batch: Any,
                       *args: Any) -> Event:
        """Schedule a packet-batch event slot: ``fn(batch, *args)`` fires as
        ONE heap event carrying the whole batch.

        This is the batching analogue of per-packet :meth:`schedule` — the
        heap cost is amortised over ``len(batch)`` packets.  Accounting
        (``sim.batch_events`` / ``sim.batch_packets``) is registered on
        first use only, so a scalar-only run's registry snapshot is
        unchanged by this method existing.
        """
        if self._m_batch_events is None:
            self._m_batch_events = _BATCH_EVENTS.labelled()
            self._m_batch_packets = _BATCH_PACKETS.labelled()
        self._m_batch_events.value += 1
        self._m_batch_packets.value += len(batch)
        return self.schedule(delay, fn, batch, *args)

    def schedule_every(self, interval: float, fn: Callable[..., Any], *args: Any,
                       until: Optional[float] = None) -> Recurrence:
        """Schedule a periodic callback, first firing at now+interval.

        The callback may return False to stop the recurrence; so does
        cancelling the returned :class:`Recurrence`.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be > 0, got {interval}")
        handle = Recurrence()

        def tick() -> None:
            if until is not None and self._now > until:
                return
            result = fn(*args)
            if result is False or handle.stopped:
                return
            if until is None or self._now + interval <= until:
                handle.event = self.schedule(interval, tick)

        handle.event = self.schedule_at(self._now + interval, tick)
        return handle

    def _cancel(self, event: Event) -> None:
        cancelled, heap = self._cancelled, self._heap
        if event._dead or event._epoch != self._epoch:
            return
        # pops run in (time, seq) order, so an event that already fired
        # sorts before everything still queued
        if not heap or (event.time, event.seq) < (heap[0][0], heap[0][1]):
            return
        event._dead = True
        cancelled.add(event.seq)
        self._m_cancelled.value += 1
        if (len(cancelled) >= _COMPACT_MIN_CANCELLED
                and len(cancelled) * 2 >= len(heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones and re-heapify.

        ``(time, seq)`` totally orders entries, so rebuilding the heap
        cannot change the order live events pop in.
        """
        cancelled = self._cancelled
        # in-place so aliases held by a running `run()` loop stay valid
        self._heap[:] = [entry for entry in self._heap if entry[1] not in cancelled]
        heapq.heapify(self._heap)
        cancelled.clear()
        self._m_compactions.value += 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events processed."""
        heap, cancelled, pop = self._heap, self._cancelled, heapq.heappop
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        fired = 0
        self.running = True
        try:
            while heap:
                if fired >= limit:
                    break
                if heap[0][0] > horizon:
                    self._now = horizon
                    break
                time, seq, fn, args = pop(heap)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                self._now = time
                fn(*args)
                fired += 1
            else:
                if until is not None:
                    self._now = max(self._now, until)
        finally:
            self.running = False
            self._m_processed.value += fired
        return fired

    def add_reset_hook(self, fn: Callable[[], None]) -> None:
        """Register a callback run (then discarded) by :meth:`reset`.

        Stateful subsystems hanging off the simulator — fault injectors,
        NMS watchdogs — register here so that back-to-back trials in one
        process start independent: :meth:`reset` both drains the heap *and*
        tells them to forget injected faults / timer handles.
        """
        self._reset_hooks.append(fn)

    def reset(self) -> None:
        """Discard all pending events and rewind the clock to zero.

        Also restarts the ``seq`` tiebreaker, so a reset simulator
        reproduces a fresh one bit for bit (same-timestamp events fire in
        the same order and carry the same ``seq`` values), and retires every
        outstanding cancel handle.  Reset hooks (:meth:`add_reset_hook`)
        run once and are then discarded — a re-armed subsystem must
        re-register.
        """
        self._heap.clear()
        self._cancelled.clear()
        self._epoch += 1
        self._now = 0.0
        self._m_processed.reset()
        if self._m_batch_events is not None:
            self._m_batch_events.reset()
            self._m_batch_packets.reset()
        self._seq = itertools.count()
        hooks, self._reset_hooks = self._reset_hooks, []
        for fn in hooks:
            fn()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={len(self._heap)})"

"""Unidirectional links with bandwidth, propagation delay and a drop-tail
byte queue.

The queue is the *fluid-drain FIFO* model: backlog (in bytes) drains at line
rate; a packet arriving when backlog + size exceeds the buffer is dropped.
This yields exact FIFO departure times without per-byte events — the
standard scalable formulation for event-driven network simulators.

Link drop statistics also feed the pushback baseline ("observing packet drop
statistics in individual routers", Sec. 3.1).

Counters live in the ambient :mod:`repro.obs` registry (family per metric,
labelled by link name); ``link.tx_packets`` and friends are thin property
views over the registered instruments, so existing callers and experiment
tables are unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import SimulationError
from repro.net.packet import Packet, PacketBatch
from repro.obs.metrics import declare, reset_metrics
from repro.util.stats import WindowedCounter
from repro.util.units import BITS_PER_BYTE

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.net.simulator import Simulator

__all__ = ["Link"]

_TX_PACKETS = declare("net.link.tx_packets", "counter", labels=("link",),
                      help="packets accepted for transmission")
_TX_BYTES = declare("net.link.tx_bytes", "counter", labels=("link",),
                    help="bytes accepted for transmission")
_DROPPED_PACKETS = declare("net.link.dropped_packets", "counter",
                           labels=("link",), help="tail-dropped packets")
_DROPPED_BYTES = declare("net.link.dropped_bytes", "counter",
                         labels=("link",), help="tail-dropped bytes")


class Link:
    """One direction of an AS-AS (or host-AS) adjacency.

    Parameters
    ----------
    src, dst:
        Endpoint nodes; delivery calls ``dst.receive(packet, link)``.
    bandwidth:
        Line rate in bits/second.
    delay:
        Propagation delay in seconds.
    buffer_bytes:
        Drop-tail queue size in bytes.
    """

    __slots__ = (
        "src", "dst", "bandwidth", "delay", "buffer_bytes",
        "_backlog", "_last_update",
        "_m_tx_packets", "_m_tx_bytes", "_m_dropped_packets",
        "_m_dropped_bytes", "_deliver",
        "drop_window", "drop_log",
    )

    def __init__(self, src: "Node", dst: "Node", bandwidth: float,
                 delay: float, buffer_bytes: int = 64_000,
                 stats_window: float = 1.0) -> None:
        if bandwidth <= 0 or delay < 0 or buffer_bytes <= 0:
            raise SimulationError(
                f"bad link parameters: bw={bandwidth}, delay={delay}, buf={buffer_bytes}"
            )
        self.src = src
        self.dst = dst
        self.bandwidth = float(bandwidth)
        self.delay = float(delay)
        self.buffer_bytes = int(buffer_bytes)
        self._backlog = 0.0
        self._last_update = 0.0
        # registry-backed counters; a freshly built link always starts at
        # zero even when an earlier same-named link registered first
        name = f"{src.name}->{dst.name}"
        self._m_tx_packets = _TX_PACKETS.labelled(link=name)
        self._m_tx_bytes = _TX_BYTES.labelled(link=name)
        self._m_dropped_packets = _DROPPED_PACKETS.labelled(link=name)
        self._m_dropped_bytes = _DROPPED_BYTES.labelled(link=name)
        # bound once: every accepted packet is delivered through it
        self._deliver = dst.receive
        # sliding drop window for congestion detection (pushback)
        self.drop_window = WindowedCounter(stats_window)
        # recent drops as (time, packet) — pushback classifies these
        self.drop_log: list[tuple[float, Packet]] = []

    # --------------------------------------------------- read-only stat views
    @property
    def tx_packets(self) -> int:
        return self._m_tx_packets.value

    @property
    def tx_bytes(self) -> int:
        return self._m_tx_bytes.value

    @property
    def dropped_packets(self) -> int:
        return self._m_dropped_packets.value

    @property
    def dropped_bytes(self) -> int:
        return self._m_dropped_bytes.value

    def _drain(self, now: float) -> None:
        if now > self._last_update:
            self._backlog = max(
                0.0, self._backlog - (now - self._last_update) * self.bandwidth / BITS_PER_BYTE
            )
            self._last_update = now

    @property
    def name(self) -> str:
        return f"{self.src.name}->{self.dst.name}"

    def queue_bytes(self, now: float) -> float:
        """Current backlog in bytes."""
        self._drain(now)
        return self._backlog

    def drop_rate(self, now: float) -> float:
        """Dropped bytes/second over the stats window."""
        return self.drop_window.rate(now)

    def send(self, packet: Packet, sim: "Simulator") -> bool:
        """Enqueue ``packet`` for transmission; returns False on tail drop."""
        now = sim._now
        backlog = self._backlog
        if now > self._last_update:  # inlined _drain
            backlog -= (now - self._last_update) * self.bandwidth / BITS_PER_BYTE
            if not backlog > 0.0:
                backlog = 0.0
            self._last_update = now
        size = packet.size
        if backlog + size > self.buffer_bytes:
            self._backlog = backlog
            self._m_dropped_packets.value += 1
            self._m_dropped_bytes.value += size
            self.drop_window.add(now, size)
            self.drop_log.append((now, packet))
            if len(self.drop_log) > 10_000:  # bound memory in long floods
                del self.drop_log[:5_000]
            return False
        backlog += size
        self._backlog = backlog
        self._m_tx_packets.value += 1
        self._m_tx_bytes.value += size
        sim.push_at(now + (backlog * BITS_PER_BYTE / self.bandwidth + self.delay),
                    self._deliver, (packet, self))
        return True

    def transmit_batch(self, batch: PacketBatch,
                       sim: "Simulator") -> Optional[PacketBatch]:
        """Vectorised drop-tail enqueue of a whole batch.

        Applies the exact per-packet FIFO admission rule (drop packet i iff
        admitting it would push the backlog past the buffer) as array
        operations: a cumulative-sum prefix plus one ``searchsorted`` per
        *dropped* packet, so the common all-accepted case is O(1) in
        Python.  Accepted packets are delivered by ONE batch event at the
        serialization time of the full accepted backlog — for a batch of
        size 1 this is exactly :meth:`send`'s timing and accounting, so the
        scalar and batch engines agree byte for byte at B=1; at larger B
        the intra-batch departure spacing is coarsened by design.

        Returns the rejected sub-batch, or ``None`` when every packet was
        accepted.  The caller must not reuse ``batch`` afterwards
        (ownership transfers to the receiver).
        """
        n = len(batch)
        if n == 0:
            return None
        now = sim.now
        self._drain(now)
        sizes = batch.size
        total = int(sizes.sum())
        room = self.buffer_bytes - self._backlog
        if total <= room:
            accepted: Optional[PacketBatch] = batch
            rejected: Optional[PacketBatch] = None
            accepted_bytes, n_accepted = total, n
        else:
            csum = np.cumsum(sizes)
            keep = np.ones(n, dtype=bool)
            dropped_bytes = 0
            # first index whose running accepted backlog exceeds the room;
            # each iteration drops one packet, so this loops O(#drops)
            i = int(np.searchsorted(csum, room + dropped_bytes, side="right"))
            while i < n:
                keep[i] = False
                dropped_bytes += int(sizes[i])
                i = int(np.searchsorted(csum, room + dropped_bytes,
                                        side="right"))
            rejected = batch.select(~keep)
            n_rejected = len(rejected)
            self._m_dropped_packets.value += n_rejected
            self._m_dropped_bytes.value += dropped_bytes
            self.drop_window.add(now, dropped_bytes)
            # pushback reads drop_log packets; materialise the few drops
            for p in rejected.to_packets():
                self.drop_log.append((now, p))
            if len(self.drop_log) > 10_000:
                del self.drop_log[:5_000]
            accepted = batch.select(keep)
            accepted_bytes = total - dropped_bytes
            n_accepted = n - n_rejected
        if n_accepted == 0:
            return rejected
        self._backlog += accepted_bytes
        serialization = self._backlog * BITS_PER_BYTE / self.bandwidth
        self._m_tx_packets.value += n_accepted
        self._m_tx_bytes.value += accepted_bytes
        sim.schedule_batch(serialization + self.delay,
                           self.dst.receive_batch, accepted, self)
        return rejected

    def reset_stats(self) -> None:
        """Zero all counters (between experiment phases)."""
        reset_metrics((self._m_tx_packets, self._m_tx_bytes,
                       self._m_dropped_packets, self._m_dropped_bytes))
        self.drop_log.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, {self.bandwidth/1e6:.1f} Mbit/s)"

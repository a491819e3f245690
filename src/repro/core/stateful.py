"""Stateful and timing-based processing components.

Two advanced components the paper's Sec. 4.2 calls for beyond plain header
matching:

* :class:`StatefulTeardownFilter` — a *connection-aware* teardown filter:
  instead of dropping every RST/ICMP-unreachable (which would break
  legitimate resets), it tracks the owner's observed connections and drops
  only teardown packets that do **not** belong to a live flow the device
  has seen traffic for recently.  This is the precise version of the
  "attacks based on protocol misuse ... can also be filtered out" rule.

* :class:`TimingAnomalyFilter` — matches "timing characteristics"
  (Sec. 4.2): flags/drops sources whose inter-arrival regularity betrays a
  flooding tool (human/bursty traffic has high coefficient of variation;
  CBR attack tools are metronomic).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.components import DROP, PASS, Capabilities, Component, ComponentContext, Verdict
from repro.net.packet import ICMPType, Packet, Protocol, TCPFlags

__all__ = ["StatefulTeardownFilter", "TimingAnomalyFilter"]

#: seconds a flow stays live after its last forward packet
FLOW_TIMEOUT = 30.0
#: flow-table size at which expired flows are swept out
MAX_FLOWS = 100_000


@dataclass
class _FlowState:
    last_seen: float
    packets: int


class StatefulTeardownFilter(Component):
    """Drop RST/ICMP-unreachable packets that match no live connection.

    A flow is identified by (src, dst, sport, dport); a teardown packet is
    legitimate only if the *reverse* direction has carried data within
    ``FLOW_TIMEOUT`` seconds — i.e. the claimed sender really is talking to
    the victim.  Forged teardowns from spoofed peers have a matching flow
    key but no observed forward traffic, so they die here while genuine
    resets pass.
    """

    capabilities = Capabilities(may_drop=True)

    def __init__(self, name: str = "stateful-teardown") -> None:
        super().__init__(name)
        self._flows: dict[tuple[int, int, int, int], _FlowState] = {}
        self.forged_dropped = 0
        self.legit_teardowns = 0

    @staticmethod
    def _key(packet: Packet) -> tuple[int, int, int, int]:
        return (int(packet.src), int(packet.dst), packet.sport, packet.dport)

    def _is_teardown(self, packet: Packet) -> bool:
        return (
            (packet.proto is Protocol.TCP and bool(packet.flags & TCPFlags.RST))
            or (packet.proto is Protocol.ICMP
                and packet.icmp_type is ICMPType.HOST_UNREACHABLE)
        )

    def _note_flow(self, packet: Packet, now: float) -> None:
        if len(self._flows) >= MAX_FLOWS:
            self._expire(now)
        key = self._key(packet)
        state = self._flows.get(key)
        if state is None:
            self._flows[key] = _FlowState(last_seen=now, packets=1)
        else:
            state.last_seen = now
            state.packets += 1

    def _expire(self, now: float) -> None:
        cutoff = now - FLOW_TIMEOUT
        dead = [k for k, s in self._flows.items() if s.last_seen < cutoff]
        for k in dead:
            del self._flows[k]

    def _has_live_flow(self, packet: Packet, now: float) -> bool:
        key = self._key(packet)
        state = self._flows.get(key)
        return state is not None and now - state.last_seen <= FLOW_TIMEOUT

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        if self._is_teardown(packet):
            if self._has_live_flow(packet, ctx.now):
                self.legit_teardowns += 1
                return PASS
            self.forged_dropped += 1
            return DROP
        self._note_flow(packet, ctx.now)
        return PASS


class TimingAnomalyFilter(Component):
    """Drop sources whose inter-arrival timing is tool-like.

    Per source address, keep the last ``window`` inter-arrival gaps; once
    at least ``min_samples`` gaps exist, compute the coefficient of
    variation (stdev/mean).  CBR flooding tools produce CV ~ 0; values
    below ``cv_threshold`` mark the source as a machine-gun sender and its
    packets are dropped until its timing becomes bursty again.
    """

    capabilities = Capabilities(may_drop=True)

    def __init__(self, name: str = "timing-anomaly", cv_threshold: float = 0.1,
                 window: int = 16, min_samples: int = 8,
                 max_sources: int = 50_000) -> None:
        super().__init__(name)
        self.cv_threshold = cv_threshold
        self.window = window
        self.min_samples = min_samples
        self.max_sources = max_sources
        self._last: dict[int, float] = {}
        self._gaps: dict[int, deque[float]] = {}
        self.flagged_sources: set[int] = set()

    def _cv(self, gaps: deque[float]) -> float:
        n = len(gaps)
        mean = sum(gaps) / n
        if mean <= 0:
            return 0.0
        var = sum((g - mean) ** 2 for g in gaps) / n
        return (var ** 0.5) / mean

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        src = int(packet.src)
        if len(self._last) >= self.max_sources and src not in self._last:
            self._last.clear()
            self._gaps.clear()
        last = self._last.get(src)
        self._last[src] = ctx.now
        if last is not None:
            gaps = self._gaps.setdefault(src, deque(maxlen=self.window))
            gaps.append(ctx.now - last)
            if len(gaps) >= self.min_samples:
                if self._cv(gaps) < self.cv_threshold:
                    self.flagged_sources.add(src)
                else:
                    self.flagged_sources.discard(src)
        if src in self.flagged_sources:
            return DROP
        return PASS

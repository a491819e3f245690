"""Security restrictions on delegated traffic control (paper Sec. 4.5).

Three mechanisms, mirroring the paper's argument that misuse "must be
prevented from the very beginning":

1. **Static vetting** (:func:`vet_component`, run over every component
   and the graph's aggregate budget by
   :func:`~repro.policy.compiler.compile_policy` when a decision core
   installs a graph) — "New service modules for the
   adaptive device must be checked for security compliance before
   deployment."  Rejects components that declare writes to src/dst/TTL,
   packet-rate amplification (> 1 output per input), size amplification
   (> 1.0 size ratio), or an excessive side-channel budget.

2. **Runtime conservation monitoring** (:class:`SafetyMonitor`) — catches
   components whose *behaviour* contradicts their declaration: per-packet
   header/size invariants and per-window packet/byte conservation ("the
   amount of the network traffic leaving the adaptive device must be equal
   or less compared to the amount of traffic entering it").

3. **Scope confinement** is structural (the device only ever hands a user's
   graph packets that user owns — see :mod:`repro.core.device`), so it
   needs no checking here; tests prove it by construction.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import SafetyViolation, VettingError
from repro.core.components import Component
from repro.net.packet import Packet

__all__ = [
    "FORBIDDEN_HEADER_FIELDS",
    "MAX_EXTRA_TRAFFIC_BPS",
    "vet_component",
    "PacketSnapshot",
    "SafetyMonitor",
]

#: Sec. 4.5: "We do not allow the adaptive device to modify the source and
#: the destination IP address of a packet.  ...  Also the TTL field ... is
#: a field we cannot allow to be modified."
FORBIDDEN_HEADER_FIELDS: frozenset[str] = frozenset({"src", "dst", "ttl"})

#: Footnote 1: logging/statistics/triggers get "a reasonable amount of
#: additional traffic" — capped per component.
MAX_EXTRA_TRAFFIC_BPS: float = 64_000.0


def vet_component(component: Component) -> None:
    """Static security check of one component's declared capabilities."""
    caps = component.capabilities
    forbidden = caps.modifies_headers & FORBIDDEN_HEADER_FIELDS
    if forbidden:
        raise VettingError(
            f"component {component.name!r} declares writes to forbidden "
            f"header fields {sorted(forbidden)} (Sec. 4.5)"
        )
    if caps.max_outputs_per_input > 1:
        raise VettingError(
            f"component {component.name!r} may emit "
            f"{caps.max_outputs_per_input} packets per input: rate "
            f"amplification is forbidden (Sec. 4.5)"
        )
    if caps.max_size_ratio > 1.0:
        raise VettingError(
            f"component {component.name!r} may grow packets by factor "
            f"{caps.max_size_ratio}: byte amplification is forbidden (Sec. 4.5)"
        )
    if caps.extra_traffic_bps > MAX_EXTRA_TRAFFIC_BPS:
        raise VettingError(
            f"component {component.name!r} requests {caps.extra_traffic_bps:.0f} "
            f"bit/s of side-channel traffic (max {MAX_EXTRA_TRAFFIC_BPS:.0f})"
        )


class PacketSnapshot(NamedTuple):
    """Immutable copy of the safety-relevant header fields."""

    src: int
    dst: int
    ttl: int
    size: int

    @classmethod
    def of(cls, packet: Packet) -> "PacketSnapshot":
        return cls(packet.src.value, packet.dst.value, packet.ttl, packet.size)


class SafetyMonitor:
    """Runtime enforcement of the Sec. 4.5 conservation invariants.

    The adaptive device snapshots each packet before a service graph runs
    and calls :meth:`check` afterwards.  Violations raise
    :class:`SafetyViolation`; the device disables the offending service
    ("countermeasures against effects of misconfigurations and misuse").
    """

    def __init__(self) -> None:
        self.packets_in = 0
        self.packets_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.violations = 0

    def note_in(self, packet: Packet) -> PacketSnapshot:
        self.packets_in += 1
        self.bytes_in += packet.size
        return PacketSnapshot.of(packet)

    def check(self, before: PacketSnapshot, packet: Packet | None,
              service_name: str) -> None:
        """Validate the packet (or its drop) against the pre-snapshot."""
        if packet is None:  # dropped: conservation trivially holds
            self._assert_conservation(service_name)
            return
        if int(packet.src) != before.src or int(packet.dst) != before.dst:
            self.violations += 1
            raise SafetyViolation(
                f"service {service_name!r} rewrote src/dst addresses "
                f"(rerouting could 'wreak havoc easily', Sec. 4.5)"
            )
        if packet.ttl != before.ttl:
            self.violations += 1
            raise SafetyViolation(
                f"service {service_name!r} modified the TTL field (Sec. 4.5)"
            )
        if packet.size > before.size:
            self.violations += 1
            raise SafetyViolation(
                f"service {service_name!r} grew the packet from "
                f"{before.size} to {packet.size} bytes: byte amplification"
            )
        self.packets_out += 1
        self.bytes_out += packet.size
        self._assert_conservation(service_name)

    def _assert_conservation(self, service_name: str) -> None:
        if self.packets_out > self.packets_in:
            self.violations += 1
            raise SafetyViolation(
                f"service {service_name!r} emitted more packets than it "
                f"received ({self.packets_out} > {self.packets_in})"
            )
        if self.bytes_out > self.bytes_in:
            self.violations += 1
            raise SafetyViolation(
                f"service {service_name!r} emitted more bytes than it "
                f"received ({self.bytes_out} > {self.bytes_in})"
            )

    @property
    def conserving(self) -> bool:
        return self.packets_out <= self.packets_in and self.bytes_out <= self.bytes_in

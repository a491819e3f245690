"""Amplification metrics of the attack structure (paper Sec. 2.2).

"Such a network amplifies [1] the rate of packets (a few control packets of
the attacker to the masters cause many attack packets to be sent by the
agents to the victim), [2] the size of packets (if request packet size <
reply packet size) and [3] the difficulty to trace back an attack."

These three quantities, measured from a finished packet-level run, are the
content of experiment E1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.roles import AmplifyingNetwork
from repro.net.node import Host

__all__ = ["AmplificationReport", "measure_amplification"]


@dataclass(frozen=True)
class AmplificationReport:
    """The three Sec. 2.2 amplification factors plus raw counters."""

    control_packets: int          # attacker -> masters -> agents commands
    attack_packets_at_victim: int
    attack_bytes_at_victim: int
    request_bytes_sent: int       # agents' spoofed request volume
    rate_amplification: float     # attack packets / control packets
    byte_amplification: float     # victim attack bytes / agent request bytes
    traceback_depth: int          # indirection levels to the attacker


def measure_amplification(structure: AmplifyingNetwork, victim: Host,
                          control_packets: int,
                          request_bytes_sent: int) -> AmplificationReport:
    """Compute the Sec. 2.2 amplification factors from run counters.

    ``control_packets`` is the number of command packets the attacker side
    needed (1 per master + 1 per agent in the simplest orchestration);
    ``request_bytes_sent`` is the agents' transmitted request volume.
    """
    attack_kinds = [k for k in victim.received_by_kind if k.startswith("attack")]
    pkts = sum(victim.received_by_kind[k] for k in attack_kinds)
    bts = sum(victim.received_bytes_by_kind[k] for k in attack_kinds)
    rate_amp = pkts / control_packets if control_packets else float("inf")
    byte_amp = bts / request_bytes_sent if request_bytes_sent else 0.0
    return AmplificationReport(
        control_packets=control_packets,
        attack_packets_at_victim=pkts,
        attack_bytes_at_victim=bts,
        request_bytes_sent=request_bytes_sent,
        rate_amplification=rate_amp,
        byte_amplification=byte_amp,
        traceback_depth=structure.control_depth,
    )

"""Applications built on the traffic control service (paper Secs. 4.3-4.4).

* :mod:`antispoof` — worldwide anti-spoofing / DDoS reflector defense
  (the headline application of Sec. 4.3),
* :mod:`firewall` — distributed firewall-like filtering, incl. the
  protocol-misuse (RST/ICMP teardown) rules,
* :mod:`spie_traceback` — worldwide packet traceback service on the TCS,
* :mod:`triggers` — automated reaction to network anomalies,
* :mod:`debugging` — network debugging and traffic statistics.
"""

from repro.core.apps.antispoof import AntiSpoofApp, TcsAntiSpoofMitigation
from repro.core.apps.firewall import BLOCK_ICMP_UNREACH, BLOCK_RST, DistributedFirewallApp
from repro.core.apps.spie_traceback import SpieTracebackApp
from repro.core.apps.triggers import AutoReactionApp
from repro.core.apps.debugging import NetworkDebuggingApp, LinkEstimate
from repro.core.apps.statistics import DistributedStatisticsApp, TrafficMatrixCollector, TrafficReport
from repro.core.apps.defender import DefenseAction, ReactiveDefender

__all__ = [
    "AntiSpoofApp",
    "TcsAntiSpoofMitigation",
    "BLOCK_ICMP_UNREACH",
    "BLOCK_RST",
    "DistributedFirewallApp",
    "SpieTracebackApp",
    "AutoReactionApp",
    "NetworkDebuggingApp",
    "LinkEstimate",
    "DistributedStatisticsApp",
    "TrafficMatrixCollector",
    "TrafficReport",
    "ReactiveDefender",
    "DefenseAction",
]

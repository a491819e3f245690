"""DDoS attack framework.

Implements the paper's Sec. 2 attack scenarios as runnable workloads:

* the amplifying network of masters and agents (Fig. 1) — :mod:`roles`,
* direct UDP / TCP-SYN floods with optional source spoofing — :mod:`flood`,
* DDoS *reflector* attacks bouncing traffic off innocent servers — :mod:`reflector`,
* protocol-misuse attacks (TCP RST / ICMP unreachable teardown) — :mod:`protocol_misuse`,
* worm-based agent recruitment (Slammer/Blaster/MyDoom style) — :mod:`worm`,
* the three amplification metrics of Sec. 2.2 — :mod:`amplification`,
* scenario builders wiring all of it onto a topology — :mod:`scenarios`.
"""

from repro.attack.roles import AmplifyingNetwork, AttackRole
from repro.attack.flood import TrafficGenerator, DirectFlood
from repro.attack.reflector import ReflectorAttack, reflector_responder
from repro.attack.protocol_misuse import ConnectionPool, ProtocolMisuseAttack
from repro.attack.worm import EpidemicModel, PatchedEpidemicModel, WormOutbreak
from repro.attack.amplification import AmplificationReport, measure_amplification
from repro.attack.scenarios import AttackScenario
from repro.attack.campaign import Campaign, CampaignPhase, TimelineSampler

__all__ = [
    "AttackRole",
    "AmplifyingNetwork",
    "TrafficGenerator",
    "DirectFlood",
    "ReflectorAttack",
    "reflector_responder",
    "ConnectionPool",
    "ProtocolMisuseAttack",
    "EpidemicModel",
    "PatchedEpidemicModel",
    "WormOutbreak",
    "AmplificationReport",
    "measure_amplification",
    "AttackScenario",
    "Campaign",
    "CampaignPhase",
    "TimelineSampler",
]

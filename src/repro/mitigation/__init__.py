"""Baseline DDoS mitigations analysed (and found wanting) in Sec. 3 of the
paper.

Reactive schemes:

* :mod:`pushback` — aggregate congestion control with upstream propagation
  (Mahajan/Bellovin/Floyd/Ioannidis/Paxson/Shenker [13, 8]),
* :mod:`traceback` — probabilistic packet marking (Savage [19]) and SPIE
  hash digests (Snoeren [21]),
* :mod:`lasthop` — victim-installed last-hop filter rules
  (Lakshminarayanan et al. [11]).

Proactive schemes:

* :mod:`ingress` — RFC 2267 ingress filtering [7] and route-based packet
  filtering (Park & Lee [15]),
* :mod:`overlay` — SOS [9] / Mayday [4] secure overlays,
* :mod:`i3defense` — indirection-based defense on i3 [11, 23].

Each implements the common :class:`~repro.mitigation.base.Mitigation`
interface so experiment E2 can sweep mitigation x attack-class uniformly.
"""

from repro.mitigation.base import (
    Mitigation,
    deployment_sample,
)
from repro.mitigation.ingress import IngressFiltering, RouteBasedFiltering
from repro.mitigation.pushback import Pushback, PushbackConfig
from repro.mitigation.traceback import (
    PPMTraceback,
    SpieQueryResult,
    SpieTraceback,
    TracebackFilter,
)
from repro.mitigation.overlay import SecureOverlay
from repro.mitigation.i3defense import I3Defense
from repro.mitigation.lasthop import LastHopFilter

__all__ = [
    "Mitigation",
    "deployment_sample",
    "IngressFiltering",
    "RouteBasedFiltering",
    "Pushback",
    "PushbackConfig",
    "PPMTraceback",
    "SpieTraceback",
    "SpieQueryResult",
    "TracebackFilter",
    "SecureOverlay",
    "I3Defense",
    "LastHopFilter",
]

"""The paper's contribution: the adaptive distributed Traffic Control
Service (TCS).

Layered exactly as Sec. 4-5 describe:

* :mod:`ownership`    — traffic ownership + the Internet number authority,
* :mod:`certificates` — TCSP-signed ownership certificates,
* :mod:`components`   — packet-processing components (filter, rate limit,
  anti-spoof, logging, statistics, triggers, digests, scrubbing),
* :mod:`graph`        — Click-style component graphs [5, 10],
* :mod:`safety`       — Sec. 4.5 vetting + runtime conservation monitor,
* :mod:`device`       — the adaptive device with its two processing stages
  attached to a router (Figs. 2 and 6),
* :mod:`nms`          — per-ISP network management systems,
* :mod:`tcsp`         — the Traffic Control Service Provider (Figs. 3-5),
* :mod:`deployment`   — deployment scoping (border routers, tiers, AS sets),
* :mod:`service`      — the :class:`TrafficControlService` public facade,
* :mod:`apps`         — the Sec. 4.3/4.4 applications (anti-spoofing,
  distributed firewall, SPIE traceback, triggers, debugging/statistics).
"""

from repro.core.ownership import NetworkUser, NumberAuthority, OwnershipRegistry
from repro.core.certificates import CertificateAuthority, OwnershipCertificate
from repro.core.components import (
    Component,
    ComponentContext,
    HeaderFilter,
    LoggerComponent,
    PayloadHashFilter,
    PayloadScrubber,
    PrefixBlacklist,
    RateLimiterComponent,
    SourceAntiSpoof,
    StatisticsCollector,
    TriggerComponent,
    DigestStoreComponent,
    Verdict,
)
from repro.core.graph import ComponentGraph
from repro.core.safety import SafetyMonitor, vet_component
from repro.core.device import AdaptiveDevice, DeviceContext, ServiceInstance
from repro.core.nms import DesiredService, IspNms
from repro.core.rpc import CircuitBreaker, ControlChannel, RpcStats
from repro.core.storage import (
    InMemoryBackend,
    ReplicatedBackend,
    StorageBackend,
    StoreLog,
    StoreTable,
)
from repro.core.tcsp import Tcsp, IspContract, TcspReplicaSet
from repro.core.deployment import DeploymentScope
from repro.core.service import TrafficControlService
from repro.core.stateful import StatefulTeardownFilter, TimingAnomalyFilter
from repro.core.compose import RuleSpec, ServiceSpec, compile_spec, spec_factory
from repro.core.inband import ControlOutcome, ControlRequest, InbandControlPlane

__all__ = [
    "NetworkUser",
    "NumberAuthority",
    "OwnershipRegistry",
    "CertificateAuthority",
    "OwnershipCertificate",
    "Component",
    "ComponentContext",
    "Verdict",
    "HeaderFilter",
    "PrefixBlacklist",
    "RateLimiterComponent",
    "PayloadHashFilter",
    "PayloadScrubber",
    "SourceAntiSpoof",
    "LoggerComponent",
    "StatisticsCollector",
    "TriggerComponent",
    "DigestStoreComponent",
    "ComponentGraph",
    "vet_component",
    "SafetyMonitor",
    "AdaptiveDevice",
    "DeviceContext",
    "ServiceInstance",
    "IspNms",
    "DesiredService",
    "ControlChannel",
    "CircuitBreaker",
    "RpcStats",
    "Tcsp",
    "IspContract",
    "TcspReplicaSet",
    "StorageBackend",
    "InMemoryBackend",
    "ReplicatedBackend",
    "StoreTable",
    "StoreLog",
    "DeploymentScope",
    "TrafficControlService",
    "StatefulTeardownFilter",
    "TimingAnomalyFilter",
    "RuleSpec",
    "ServiceSpec",
    "compile_spec",
    "spec_factory",
    "InbandControlPlane",
    "ControlRequest",
    "ControlOutcome",
]

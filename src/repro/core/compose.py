"""Declarative service specification and automatic composition.

Paper Fig. 5: "The TCSP maps the request to service components and
instructs network management systems of appropriate ISPs to deploy and
configure the service components."  The mapping step is modelled after the
Chameleon service-composition work the paper cites ([5] Bossardt et al.):
a *service specification* is a declarative list of rules;
:func:`compile_spec` turns it into a component graph, specialised per
device context, and the device's decision core compiles and vets that
graph when it installs it.

This is the layer a real TCSP would expose to customers instead of raw
component graphs: users say *what* ("block RSTs", "rate-limit UDP to
2 Mbit/s", "log everything"), composition decides *how*.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

import numpy as np

from repro.errors import DeploymentError
from repro.core.components import (
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    PayloadScrubber,
    PrefixBlacklist,
    RateLimiterComponent,
    SourceAntiSpoof,
    StatisticsCollector,
    TriggerComponent,
)
from repro.core.device import DeviceContext
from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser, OwnershipRegistry
from repro.net.addressing import Prefix
from repro.net.packet import ICMPType, Protocol, TCPFlags

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fluid import Hops
    from repro.net.network import Network
    from repro.net.topology import Topology
    from repro.service.core import DecisionCore

__all__ = ["RuleFilter", "RuleSpec", "ServiceSpec", "compile_spec",
           "deploy_rules", "rule_core"]

#: rule actions the composer understands
ACTIONS = ("drop", "rate-limit", "scrub-payload", "blacklist",
           "anti-spoof", "log", "collect-stats", "trigger")


@dataclass(frozen=True)
class RuleSpec:
    """One declarative rule.

    ``action`` selects the component family; the remaining fields carry
    that action's parameters.  Matching fields (proto/port/flags/...) apply
    to actions that filter.
    """

    action: str
    proto: Optional[str] = None          # "tcp" | "udp" | "icmp"
    dport: Optional[int] = None
    dport_not_in: tuple[int, ...] = ()   # "all but my service ports"
    dst_prefix: Optional[str] = None     # scope to destinations in prefix
    sport: Optional[int] = None
    tcp_flags: Optional[str] = None      # "rst" | "syn" | "synack"
    icmp_type: Optional[str] = None      # "host-unreachable" | ...
    min_size: Optional[int] = None
    max_size: Optional[int] = None
    rate_bps: Optional[float] = None     # rate-limit
    prefixes: tuple[str, ...] = ()       # blacklist / anti-spoof
    threshold_pps: Optional[float] = None  # trigger
    label: str = ""

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RuleSpec":
        """A rule from its JSON object: list fields become tuples, and an
        unknown or missing field is a :class:`DeploymentError`."""
        try:
            if any(isinstance(data.get(key), str) for key in _TUPLE_FIELDS):
                raise TypeError(f"{' and '.join(_TUPLE_FIELDS)} take lists")
            return cls(**{key: tuple(value) if key in _TUPLE_FIELDS else value
                          for key, value in data.items()})
        except (AttributeError, TypeError) as exc:
            raise DeploymentError(f"bad rule {data!r}: {exc}") from None

    def validate(self) -> None:
        if self.action not in ACTIONS:
            raise DeploymentError(f"unknown rule action {self.action!r}")
        if self.action == "rate-limit" and not self.rate_bps:
            raise DeploymentError("rate-limit rule needs rate_bps")
        if self.action in ("blacklist", "anti-spoof") and not self.prefixes:
            raise DeploymentError(f"{self.action} rule needs prefixes")
        if self.action == "trigger" and not self.threshold_pps:
            raise DeploymentError("trigger rule needs threshold_pps")


_TUPLE_FIELDS = ("dport_not_in", "prefixes")


@dataclass(frozen=True)
class ServiceSpec:
    """A named, ordered list of rules — the unit a user asks the TCSP for."""

    name: str
    rules: tuple[RuleSpec, ...] = ()

    def validate(self) -> None:
        if not self.rules:
            raise DeploymentError(f"service spec {self.name!r} has no rules")
        for rule in self.rules:
            rule.validate()


_PROTO = {"tcp": Protocol.TCP, "udp": Protocol.UDP, "icmp": Protocol.ICMP}
_FLAGS = {"rst": TCPFlags.RST, "syn": TCPFlags.SYN,
          "synack": TCPFlags.SYN | TCPFlags.ACK}
_ICMP = {"host-unreachable": ICMPType.HOST_UNREACHABLE,
         "time-exceeded": ICMPType.TIME_EXCEEDED,
         "echo-request": ICMPType.ECHO_REQUEST}


def _match_of(rule: RuleSpec) -> HeaderMatch:
    if rule.proto and rule.proto not in _PROTO:
        raise DeploymentError(f"unknown protocol {rule.proto!r}")
    if rule.tcp_flags and rule.tcp_flags not in _FLAGS:
        raise DeploymentError(f"unknown tcp flags {rule.tcp_flags!r}")
    if rule.icmp_type and rule.icmp_type not in _ICMP:
        raise DeploymentError(f"unknown icmp type {rule.icmp_type!r}")
    proto = _PROTO[rule.proto] if rule.proto else None
    flags = _FLAGS[rule.tcp_flags] if rule.tcp_flags else None
    icmp = _ICMP[rule.icmp_type] if rule.icmp_type else None
    dst_prefix = Prefix.parse(rule.dst_prefix) if rule.dst_prefix else None
    return HeaderMatch(proto=proto, sport=rule.sport, dport=rule.dport,
                       dport_not_in=tuple(rule.dport_not_in),
                       flags_any=flags, icmp_type=icmp, dst_prefix=dst_prefix,
                       min_size=rule.min_size, max_size=rule.max_size)


def compile_spec(spec: ServiceSpec, device_ctx: DeviceContext,
                 trigger_action=None) -> ComponentGraph:
    """Compile a service spec into a component graph for one device.

    Rules become components in order; unknown protocols/flags and
    parameter omissions are rejected before anything reaches a device.
    ``trigger_action(ctx, rate)`` is bound to any trigger rules.  The
    graph is vetted (Sec. 4.5) when a decision core installs it.
    """
    spec.validate()
    graph = ComponentGraph(f"{spec.name}@AS{device_ctx.asn}")
    components = []
    for i, rule in enumerate(spec.rules):
        name = rule.label or f"{rule.action}-{i}"
        if rule.action == "drop":
            components.append(HeaderFilter(name, _match_of(rule)))
        elif rule.action == "rate-limit":
            components.append(RateLimiterComponent(name, rule.rate_bps))
        elif rule.action == "scrub-payload":
            components.append(PayloadScrubber(name))
        elif rule.action == "blacklist":
            components.append(PrefixBlacklist(
                name, [Prefix.parse(p) for p in rule.prefixes]))
        elif rule.action == "anti-spoof":
            components.append(SourceAntiSpoof(
                name, [Prefix.parse(p) for p in rule.prefixes]))
        elif rule.action == "log":
            components.append(LoggerComponent(name))
        elif rule.action == "collect-stats":
            components.append(StatisticsCollector(name))
        elif rule.action == "trigger":
            components.append(TriggerComponent(
                name, rule.threshold_pps,
                action=trigger_action or (lambda ctx, rate: None)))
        else:  # pragma: no cover - validate() prevents this
            raise DeploymentError(f"unhandled action {rule.action!r}")
    graph.chain(*components)
    return graph


def spec_factory(spec: ServiceSpec, trigger_action=None):
    """A :data:`~repro.core.nms.GraphFactory` compiling ``spec`` per device."""

    def factory(device_ctx: DeviceContext) -> ComponentGraph:
        return compile_spec(spec, device_ctx, trigger_action=trigger_action)

    return factory


def rule_core(topology: "Topology", asn: int, owner: NetworkUser, name: str,
              *, src_rules: Iterable[RuleSpec] = (),
              dst_rules: Iterable[RuleSpec] = ()) -> "DecisionCore":
    """``owner``'s ``src_rules`` (source-owner stage) and ``dst_rules``
    (destination-owner stage) as graphs ``name`` for AS ``asn``'s device
    context, on a core whose registry holds only ``owner``: scope
    confinement, stage order and the Sec. 4.5 monitor are the decision
    path's own."""
    # deferred import: repro.service.core imports repro.core modules
    from repro.service.core import DecisionCore

    registry = OwnershipRegistry()
    registry.register(owner)
    context = DeviceContext(asn=asn, role=topology.role_of(asn),
                            local_prefix=topology.prefix_of(asn))
    stage_rules = (tuple(src_rules), tuple(dst_rules))
    graphs = [compile_spec(ServiceSpec(name, rules), context)
              if rules else None for rules in stage_rules]
    core = DecisionCore(context, registry, strict=False)
    core.install(owner, *graphs)
    return core


def deploy_rules(network: "Network", asns: Iterable[int], owner: NetworkUser,
                 name: str, *, src_rules: Iterable[RuleSpec] = (),
                 dst_rules: Iterable[RuleSpec] = ()) -> None:
    """Deploy ``owner``'s rules at each AS in ``asns`` as router filter
    ``name`` (each AS's :func:`rule_core`), without the TCSP/NMS control
    plane."""
    src_rules, dst_rules = tuple(src_rules), tuple(dst_rules)
    for asn in asns:
        core = rule_core(network.topology, asn, owner, name,
                         src_rules=src_rules, dst_rules=dst_rules)

        def keep(packet, router, link, now, core=core):
            return (not core.wants(packet)
                    or core.process(packet, now,
                                    router._ingress_asn(link)) is not None)

        network.routers[asn].add_filter(name, keep)


class RuleFilter:
    """The fluid form of :func:`deploy_rules`: each flow's representative
    header runs through the AS's :func:`rule_core` (built when a flow
    first reaches the AS), so a flow passes whole or not at all.

    A verdict is kept per (AS, claimed-source AS, destination AS, legit
    or not, previous AS), the inputs the header and the core see, and
    shared with every :meth:`restricted` copy.  That is sound only for
    stateless rules, so rate-limit and trigger rules are rejected.
    """

    def __init__(self, topology: "Topology", asns: Iterable[int],
                 owner: NetworkUser, name: str, *,
                 src_rules: Iterable[RuleSpec] = (),
                 dst_rules: Iterable[RuleSpec] = ()) -> None:
        src_rules, dst_rules = tuple(src_rules), tuple(dst_rules)
        if any(r.action in ("rate-limit", "trigger")
               for r in (*src_rules, *dst_rules)):
            raise DeploymentError(
                "rate-limit and trigger rules keep state one fluid header "
                "cannot model; run them on the packet engine")
        self.topology, self.asns = topology, frozenset(asns)
        self._build = partial(rule_core, topology, owner=owner, name=name,
                              src_rules=src_rules, dst_rules=dst_rules)
        self._cores: dict[int, "DecisionCore"] = {}
        self._verdicts: dict[tuple, bool] = {}

    def restricted(self, asns: Iterable[int]) -> "RuleFilter":
        """The same rules at ``asns`` only, a subset of this filter's
        ASes, sharing this filter's cores and verdicts."""
        other = copy.copy(self)
        other.asns = frozenset(asns)
        if not other.asns <= self.asns:
            raise DeploymentError("restricted() takes a subset of the ASes")
        return other

    def pass_fractions(self, hops: "Hops", sel: np.ndarray) -> np.ndarray:
        out = np.ones(sel.size)
        verdicts = self._verdicts
        for i, flow, asn, prev in hops.visits(sel, self.asns):
            key = (asn, flow.source_address_asn, flow.dst_asn,
                   flow.kind == "legit", prev)
            keep = verdicts.get(key)
            if keep is None:
                core = self._cores.get(asn)
                if core is None:
                    core = self._cores[asn] = self._build(asn)
                h = flow.header(self.topology)
                # prev is None at the flow's source AS: local origin
                keep = verdicts[key] = (not core.wants(h) or core.process(
                    h, 0.0, prev) is not None)
            if not keep:
                out[i] = 0.0
        return out

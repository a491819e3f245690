"""Uniform defense deployment: one registry, one handle, every scheme.

Each defense from the paper's Sec. 3 survey (plus the TCS itself) is a
registered deploy function ``fn(built, spec) -> DefenseHandle`` that
mutates the built world — installing filters, scheduling reaction events —
and returns a :class:`DefenseHandle` carrying everything the engine needs
afterwards: display notes, the set of identified source ASes, an optional
wrapper for cooperative legitimate clients (overlays, i3 triggers), and
finalizers that run after the simulation (e.g. pushback reads its
aggregates off the live routers).

Every experiment and the CLI share these deploy bodies.  A second registry
maps the defenses the fluid model also expresses (ingress, route-based,
``tcs``, ``tcs-spec``) to :class:`~repro.net.fluid.FluidFilter` builders.
Each TCS arm's rule set comes from :func:`_tcs_rules` for both engines:
:func:`~repro.core.compose.deploy_rules` installs it on routers,
:class:`~repro.core.compose.RuleFilter` runs it on fluid flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, TYPE_CHECKING

from repro.core.apps import TcsAntiSpoofMitigation
from repro.core.compose import RuleFilter, RuleSpec, deploy_rules
from repro.core.ownership import NetworkUser
from repro.errors import DeploymentError
from repro.mitigation import (
    I3Defense,
    IngressFiltering,
    LastHopFilter,
    PPMTraceback,
    Pushback,
    PushbackConfig,
    RouteBasedFiltering,
    SecureOverlay,
    TracebackFilter,
    deployment_sample,
)
from repro.mitigation.traceback import MarkingCollector
from repro.net import Protocol
from repro.scenario.spec import DefenseSpec, SpecError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fluid import FluidNetwork
    from repro.net.network import Network
    from repro.net.topology import Topology
    from repro.scenario.build import BuiltScenario

__all__ = ["DefenseHandle", "defense", "fluid_defense", "deploy", "fluid_filters",
           "names", "fluid_names", "tcs_blacklist", "victim_user"]


@dataclass
class DefenseHandle:
    """What the engine keeps after deploying a defense."""

    name: str
    notes: str = ""
    legit_wrapper: Optional[Callable] = None
    identified: set[int] = field(default_factory=set)
    finalizers: list[Callable[[], None]] = field(default_factory=list)

    def finish(self) -> None:
        """Run post-simulation hooks (identification, status notes)."""
        for fn in self.finalizers:
            fn()


DeployFn = Callable[["BuiltScenario", DefenseSpec], DefenseHandle]
FluidFn = Callable[["BuiltScenario", DefenseSpec, "FluidNetwork"], list]

_DEFENSES: dict[str, DeployFn] = {}
_FLUID: dict[str, FluidFn] = {}


def defense(name: str) -> Callable[[DeployFn], DeployFn]:
    """Register a packet-engine deploy function under ``name``."""

    def wrap(fn: DeployFn) -> DeployFn:
        _DEFENSES[name] = fn
        return fn

    return wrap


def fluid_defense(name: str) -> Callable[[FluidFn], FluidFn]:
    """Register a fluid-filter builder for the same defense ``name``."""

    def wrap(fn: FluidFn) -> FluidFn:
        _FLUID[name] = fn
        return fn

    return wrap


def names() -> tuple[str, ...]:
    return tuple(sorted(_DEFENSES))


def fluid_names() -> tuple[str, ...]:
    return tuple(sorted(_FLUID))


def deploy(built: "BuiltScenario", spec: DefenseSpec) -> DefenseHandle:
    """Deploy ``spec`` into the built world and return its handle."""
    try:
        fn = _DEFENSES[spec.name]
    except KeyError:
        raise SpecError(
            f"unknown defense {spec.name!r}; known: {names()}") from None
    return fn(built, spec)


def fluid_filters(built: "BuiltScenario", spec: DefenseSpec,
                  fluid: "FluidNetwork") -> list:
    """Fluid-model filters for ``spec`` (raises for packet-only schemes)."""
    try:
        fn = _FLUID[spec.name]
    except KeyError:
        raise SpecError(
            f"defense {spec.name!r} has no fluid-model equivalent; "
            f"fluid-capable: {fluid_names()}") from None
    return fn(built, spec, fluid)


# --------------------------------------------------------------------------
# packet-engine deployments (moved verbatim from E2's mitigation matrix)
# --------------------------------------------------------------------------

@defense("none")
def _deploy_none(built: "BuiltScenario", spec: DefenseSpec) -> DefenseHandle:
    return DefenseHandle(name="none")


@defense("ingress")
def _deploy_ingress(built: "BuiltScenario",
                    spec: DefenseSpec) -> DefenseHandle:
    net = built.network
    IngressFiltering().deploy(net, net.topology.stub_ases)
    return DefenseHandle(name="ingress")


@defense("rbf")
def _deploy_rbf(built: "BuiltScenario", spec: DefenseSpec) -> DefenseHandle:
    net = built.network
    fraction = spec.get("fraction", 0.3)
    asns = deployment_sample(net.topology, fraction, seed=built.spec.seed)
    RouteBasedFiltering().deploy(net, asns)
    return DefenseHandle(name="rbf", notes=f"{fraction:.0%} of ASes")


@defense("pushback")
def _deploy_pushback(built: "BuiltScenario",
                     spec: DefenseSpec) -> DefenseHandle:
    net = built.network
    pb = Pushback(PushbackConfig(top_aggregates=spec.get("top_aggregates", 3)))
    pb.deploy(net, net.topology.as_numbers, until=built.horizon)
    handle = DefenseHandle(name="pushback")
    handle.finalizers.append(
        lambda: handle.identified.update(pb.identified_asns()))
    return handle


@defense("traceback-filter")
def _deploy_traceback(built: "BuiltScenario",
                      spec: DefenseSpec) -> DefenseHandle:
    net, sc = built.network, built.scenario
    ppm = PPMTraceback(p=spec.get("p", 0.1), seed=built.spec.seed)
    ppm.deploy(net, net.topology.as_numbers)
    collector = MarkingCollector()
    sc.victim.add_responder(collector.on_packet)
    handle = DefenseHandle(name="traceback-filter",
                           notes="filter identified sources at victim ISP")

    def react() -> None:
        found = PPMTraceback.identified_source_asns(
            collector, min_count=spec.get("min_count", 2))
        handle.identified.update(found)
        if found:
            TracebackFilter(found).deploy(net, [sc.victim_asn])

    net.sim.schedule_at(sc.attack.attack_start + 0.3, react)
    return handle


@defense("sos")
def _deploy_sos(built: "BuiltScenario", spec: DefenseSpec) -> DefenseHandle:
    net, sc = built.network, built.scenario
    stubs = [a for a in net.topology.stub_ases
             if a != sc.victim_asn and a not in built.agent_asns]
    sos = SecureOverlay(sc.victim, overlay_asns=stubs[:4], n_soaps=2,
                        n_beacons=1, n_servlets=1)
    sos.deploy(net)
    switched = sc.legit_clients[: len(sc.legit_clients) // 2]
    for client in switched:
        sos.authorize(client)
    switched_set = {id(c) for c in switched}

    def legit_wrapper(client, pkt, sos=sos, switched_set=switched_set):
        if id(client) in switched_set:
            return sos.overlay_packet(client, pkt)
        return pkt

    return DefenseHandle(name="sos", legit_wrapper=legit_wrapper,
                         notes="half the clients joined the overlay")


@defense("i3")
def _deploy_i3(built: "BuiltScenario", spec: DefenseSpec) -> DefenseHandle:
    net, sc = built.network, built.scenario
    stubs = [a for a in net.topology.stub_ases
             if a != sc.victim_asn and a not in built.agent_asns]
    i3 = I3Defense(sc.victim, i3_asns=stubs[:2])
    i3.deploy(net)
    switched = sc.legit_clients[: len(sc.legit_clients) // 2]
    switched_set = {id(c) for c in switched}

    def legit_wrapper(client, pkt, i3=i3, switched_set=switched_set):
        if id(client) in switched_set:
            return i3.trigger_packet(client, pkt)
        return pkt

    return DefenseHandle(
        name="i3", legit_wrapper=legit_wrapper,
        notes="half the clients use the trigger; victim IP already known")


@defense("lasthop")
def _deploy_lasthop(built: "BuiltScenario",
                    spec: DefenseSpec) -> DefenseHandle:
    net, sc = built.network, built.scenario
    lh = LastHopFilter(
        sc.victim,
        lambda p: p.proto is Protocol.UDP and p.dport != 80,
        processing_capacity_pps=spec.get("capacity_pps", 800.0),
    )
    lh.deploy(net)
    handle = DefenseHandle(name="lasthop")
    status = {"msg": ""}

    def attempt(lh=lh):
        ok = lh.try_configure()
        status["msg"] = ("configured" if ok
                         else "victim overloaded: config FAILED")

    net.sim.schedule_at(sc.attack.attack_start + 0.2, attempt)

    def set_notes() -> None:
        handle.notes = status["msg"]

    handle.finalizers.append(set_notes)
    return handle


#: The TCS distributed-firewall rule: drop UDP to anything but the
#: victim's port-80 service.  It runs in the destination-owner stage, so
#: it only ever sees traffic bound for the owner.
OFFSERVICE_UDP = RuleSpec(action="drop", proto="udp", dport_not_in=(80,),
                          label="offservice-udp")


def victim_user(topology: "Topology", victim_asn: int) -> NetworkUser:
    return NetworkUser("tcs-victim", "victim",
                       [topology.prefix_of(victim_asn)])


def tcs_blacklist(net: "Network", victim_asn: int,
                  src_asns: Iterable[int]) -> None:
    """Blacklist each source AS's own prefix at that AS's border for
    traffic bound to the victim (router filter ``tcs-blacklist``)."""
    owner = victim_user(net.topology, victim_asn)
    for asn in src_asns:
        rule = RuleSpec(action="blacklist",
                        prefixes=(str(net.topology.prefix_of(asn)),))
        deploy_rules(net, [asn], owner, "tcs-blacklist", dst_rules=(rule,))


def _tcs_rules(built: "BuiltScenario", spec: DefenseSpec) -> tuple:
    """``(asns, owner, name, src_rules, dst_rules)`` at the stub borders,
    for both engines: ``tcs-spec``'s rules (its ``rules`` parameter, else
    :data:`OFFSERVICE_UDP`), or the ``tcs`` firewall (spoofed floods) or
    anti-spoofing (reflector attacks) arm."""
    topo, victim_asn = built.topology, built.victim_asn
    stubs = topo.stub_ases
    if spec.name == "tcs-spec":
        rules = spec.get("rules", None)
        rule_specs = (tuple(RuleSpec.from_dict(r) for r in rules) if rules
                      else (OFFSERVICE_UDP,))
        return stubs, victim_user(topo, victim_asn), "tcs-spec", (), rule_specs
    attack_kind = built.scenario.attack.kind
    if attack_kind == "direct-spoofed":
        return (stubs, victim_user(topo, victim_asn), "tcs-firewall", (),
                (OFFSERVICE_UDP,))
    if attack_kind == "direct-unspoofed":
        raise SpecError("the tcs blacklist arm reacts to the victim's "
                        "packet log; run it on the packet engine")
    return TcsAntiSpoofMitigation([topo.prefix_of(victim_asn)]).rule_set(
        topo, stubs)


@defense("tcs")
def _deploy_tcs(built: "BuiltScenario", spec: DefenseSpec) -> DefenseHandle:
    """The paper's own service, specialised per attack class (Sec. 4.3).

    Every arm is the victim's rules on the TCS decision path
    (:func:`~repro.core.compose.deploy_rules`): they touch only traffic
    the victim owns (Sec. 4.5).
    """
    net, sc = built.network, built.scenario
    attack_kind = sc.attack.kind
    handle = DefenseHandle(name="tcs")

    if attack_kind == "direct-unspoofed":
        # sources are genuine: the victim reads them off its own
        # traffic and pushes blacklist rules close to the sources.
        sc.victim.record = True

        def react_tcs() -> None:
            src_asns = {
                net.topology.as_of(p.src)
                for _, p in sc.victim.log if p.kind.startswith("attack")
            }
            src_asns.discard(None)
            handle.identified.update(src_asns)
            tcs_blacklist(net, sc.victim_asn, src_asns)

        net.sim.schedule_at(sc.attack.attack_start + 0.2, react_tcs)
        handle.notes = "TCS blacklist near sources (genuine addresses)"
        return handle
    # spoofed sources defeat source-based rules, but the victim owns the
    # *destination* (firewall, dst-owner stage) and the address reflector
    # requests claim (anti-spoofing, src-owner stage)
    asns, owner, name, src, dst = _tcs_rules(built, spec)
    deploy_rules(net, asns, owner, name, src_rules=src, dst_rules=dst)
    handle.notes = ("TCS distributed firewall (dst-owner stage) at stub borders"
                    if name == "tcs-firewall" else "TCS anti-spoofing at all stub borders")
    return handle


@defense("tcs-spec")
def _deploy_tcs_spec(built: "BuiltScenario",
                     spec: DefenseSpec) -> DefenseHandle:
    """TCS deployed from a *declarative* service spec via the policy compiler.

    The policy is a list of :class:`RuleSpec` (see :func:`_tcs_rules`),
    compiled per stub border and run in the victim's dst-owner stage.
    """
    asns, owner, name, src, dst = _tcs_rules(built, spec)
    deploy_rules(built.network, asns, owner, name, src_rules=src,
                 dst_rules=dst)
    return DefenseHandle(
        name="tcs-spec",
        notes=f"declarative spec compiled at {len(asns)} stub borders")


# --------------------------------------------------------------------------
# fluid-model equivalents (the subset of defenses the flow model can express)
# --------------------------------------------------------------------------

@fluid_defense("none")
def _fluid_none(built: "BuiltScenario", spec: DefenseSpec,
                fluid: "FluidNetwork") -> list:
    return []


@fluid_defense("ingress")
def _fluid_ingress(built: "BuiltScenario", spec: DefenseSpec,
                   fluid: "FluidNetwork") -> list:
    ing = IngressFiltering()
    ing.deployed_asns = set(built.topology.stub_ases)
    return [ing.fluid_filter(fluid)]


@fluid_defense("rbf")
def _fluid_rbf(built: "BuiltScenario", spec: DefenseSpec,
               fluid: "FluidNetwork") -> list:
    fraction = spec.get("fraction", 0.3)
    rbf = RouteBasedFiltering()
    rbf.deployed_asns = set(
        deployment_sample(built.topology, fraction, seed=built.spec.seed))
    return [rbf.fluid_filter(fluid)]


@fluid_defense("tcs")
@fluid_defense("tcs-spec")
def _fluid_tcs(built: "BuiltScenario", spec: DefenseSpec,
               fluid: "FluidNetwork") -> list:
    asns, owner, name, src, dst = _tcs_rules(built, spec)
    try:
        return [RuleFilter(built.topology, asns, owner, name, src_rules=src,
                           dst_rules=dst)]
    except DeploymentError as exc:
        raise SpecError(str(exc)) from None

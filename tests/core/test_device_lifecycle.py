"""Device crash and restart against a plain-dict model of desired services.

A hypothesis state machine drives one :class:`~repro.core.nms.IspNms` and
its :class:`~repro.core.device.AdaptiveDevice`\\ s (bootstrapped with
:func:`~repro.scenario.tcs.build_tcs_world`) through deploys,
(de)activations, device crashes under either fail policy, restarts and
watchdog heartbeats.  The model keeps, per user, the activation and, per
target AS, the stage graphs the user asked for (a deploy that leaves a
stage out keeps that AS's earlier graph), plus each device's liveness:

* a crashed fail-open device claims no packet;
* a crashed fail-closed device drops every owned packet;
* right after a restart a device holds no service and an empty flow cache;
* after the next heartbeat its services and active flags equal the model's;
* every live verdict equals
  :func:`tests.policy.test_compiler.reference_walk` over the model's graphs.

CI draws more cases with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from typing import Optional

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import ComponentGraph
from repro.core.components import (
    ComponentContext,
    HeaderFilter,
    HeaderMatch,
    PrefixBlacklist,
    Verdict,
)
from repro.core.nms import WATCHDOG_INTERVAL
from repro.net import Network, Packet, Prefix, Protocol, TopologyBuilder
from repro.scenario.tcs import build_tcs_world
from tests.policy.test_compiler import reference_walk

ASNS = (0, 1, 2, 3)
#: user -> the AS whose prefix it owns (the line's two stub ends)
HOMES = {"acme": 0, "globex": 3}
USERS = tuple(HOMES)
PROTOS = (Protocol.TCP, Protocol.UDP)
DPORTS = (7, 80)
RULES = {
    "udp": lambda: HeaderFilter("udp", HeaderMatch(proto=Protocol.UDP)),
    "dport7": lambda: HeaderFilter("dport7", HeaderMatch(dport=7)),
    "bl-as1": lambda: PrefixBlacklist("bl-as1", [Prefix.parse("10.0.1.0/24")]),
}
specs = st.lists(st.sampled_from(sorted(RULES)), min_size=1, max_size=2,
                 unique=True).map(tuple)
maybe_specs = st.none() | specs


def build(spec: tuple) -> ComponentGraph:
    graph = ComponentGraph("-".join(spec))
    graph.chain(*(RULES[name]() for name in spec))
    return graph


def factory(spec: Optional[tuple]):
    return None if spec is None else (lambda device_ctx: build(spec))


class DeviceLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.net = Network(TopologyBuilder.line(len(ASNS)))
        world = build_tcs_world(self.net, owner="acme", owner_asn=HOMES["acme"])
        prefix = self.net.topology.prefix_of(HOMES["globex"])
        world.authority.record_allocation(prefix, "globex")
        globex, globex_cert = world.tcsp.register_user("globex", [prefix])
        self.users = {"acme": (world.user, world.cert),
                      "globex": (globex, globex_cert)}
        self.nms = world.nms
        self.nms.attach_devices()
        self.nms.start_watchdog()
        self.addresses = [self.net.topology.add_host(asn) for asn in ASNS]
        #: user id -> {"active": bool, "at": {asn: {"source": spec,
        #: "dest": spec}}}
        self.desired: dict[str, dict] = {}
        #: crashed AS -> its fail policy
        self.crashed: dict[int, str] = {}
        #: restarted AS the watchdog has not reconciled yet -> the users
        #: deployed onto it since the restart
        self.unreconciled: dict[int, set[str]] = {}
        #: flows checked so far; every step re-checks them
        self.seen: set[tuple] = set()

    # ----------------------------------------------------------- model
    def owner(self, addr) -> Optional[str]:
        """Owner per the NMS registry: a user is registered on deploy."""
        asn = self.net.topology.as_of(addr)
        for uid, home in HOMES.items():
            if home == asn and uid in self.desired:
                return uid
        return None

    def held(self, asn: int) -> dict[str, dict]:
        """The services the model says device ``asn`` holds now, as
        ``{uid: {"active": bool, "source": spec, "dest": spec}}``."""
        if asn in self.crashed:
            return {}
        since = self.unreconciled.get(asn)
        return {uid: {"active": svc["active"], **svc["at"][asn]}
                for uid, svc in self.desired.items()
                if asn in svc["at"] and (since is None or uid in since)}

    def expected(self, asn: int, packet: Packet) -> tuple[bool, bool]:
        """(claimed?, passed?) for ``packet`` at device ``asn``."""
        owners = {"source": self.owner(packet.src),
                  "dest": self.owner(packet.dst)}
        if asn in self.crashed:
            if self.crashed[asn] == "fail-open":
                return False, True
            claimed = any(uid is not None for uid in owners.values())
            return claimed, not claimed
        held = self.held(asn)
        live = {stage: held[uid] for stage, uid in owners.items()
                if uid in held and held[uid]["active"]}
        if not live:
            return False, True
        device = self.nms.devices[asn]
        for stage in ("source", "dest"):
            if stage not in live or live[stage][stage] is None:
                continue
            ctx = ComponentContext(
                now=self.net.sim.now, asn=asn,
                is_transit=device.context.is_transit,
                local_prefix=device.context.local_prefix, stage=stage,
                owner=self.users[owners[stage]][0], ingress_asn=None,
                local_origin=True)
            if reference_walk(build(live[stage][stage]), packet.copy(),
                              ctx) is Verdict.DROP:
                return True, False
        return True, True

    # ----------------------------------------------------------- rules
    @rule(uid=st.sampled_from(USERS),
          asns=st.sets(st.sampled_from(ASNS), min_size=1),
          src=maybe_specs, dst=maybe_specs)
    def deploy(self, uid, asns, src, dst):
        if src is None and dst is None:
            dst = ("udp",)
        user, cert = self.users[uid]
        configured = self.nms.deploy(cert, user, asns,
                                     factory(src), factory(dst))
        assert sorted(configured) == sorted(
            asn for asn in asns if asn not in self.crashed)
        svc = self.desired.setdefault(uid, {"active": True, "at": {}})
        for asn in asns:
            graphs = svc["at"].setdefault(asn, {"source": None, "dest": None})
            for stage, spec in (("source", src), ("dest", dst)):
                if spec is not None:
                    graphs[stage] = spec
        for asn in configured:
            if asn in self.unreconciled:
                self.unreconciled[asn].add(uid)
        self.recheck_seen()

    @rule(uid=st.sampled_from(USERS), active=st.booleans())
    def set_active(self, uid, active):
        user, cert = self.users[uid]
        self.nms.set_active(cert, uid, active)
        if uid in self.desired:
            self.desired[uid]["active"] = active
        self.recheck_seen()

    @rule(asn=st.sampled_from(ASNS),
          policy=st.sampled_from(("fail-open", "fail-closed")))
    def crash(self, asn, policy):
        device = self.nms.devices[asn]
        device.fail_policy = policy
        device.crash()
        self.crashed[asn] = policy
        self.unreconciled.pop(asn, None)
        self.recheck_seen()

    @rule(asn=st.sampled_from(ASNS))
    def restart(self, asn):
        if asn not in self.crashed:
            return
        device = self.nms.devices[asn]
        device.restart()
        del self.crashed[asn]
        self.unreconciled[asn] = set()
        assert device.services == {}
        assert len(device._core.flow_cache) == 0
        self.recheck_seen()

    @rule()
    def heartbeat(self):
        ticks = self.nms.watchdog_ticks
        self.net.run(until=self.net.sim.now + WATCHDOG_INTERVAL)
        assert self.nms.watchdog_ticks == ticks + 1
        self.unreconciled.clear()
        self.recheck_seen()

    @rule(asn=st.sampled_from(ASNS), src=st.sampled_from(ASNS),
          dst=st.sampled_from(ASNS), proto=st.sampled_from(PROTOS),
          dport=st.sampled_from(DPORTS))
    def check(self, asn, src, dst, proto, dport):
        self.seen.add((asn, src, dst, proto, dport))
        self.check_one(asn, src, dst, proto, dport)

    def recheck_seen(self):
        for flow in sorted(self.seen, key=repr):
            self.check_one(*flow)

    def check_one(self, asn, src, dst, proto, dport):
        device = self.nms.devices[asn]
        packet = Packet(self.addresses[src], self.addresses[dst],
                        proto=proto, dport=dport)
        claimed, passed = self.expected(asn, packet)
        assert device.wants(packet) == claimed
        if claimed:
            result = device.process(packet.copy(), self.net.sim.now, None)
            assert (result is not None) == passed

    # ------------------------------------------------------- invariants
    @invariant()
    def crashed_devices_follow_their_fail_policy(self):
        for asn, policy in self.crashed.items():
            device = self.nms.devices[asn]
            assert device.crashed and device.fail_policy == policy
            for src in ASNS:
                for dst in ASNS:
                    packet = Packet(self.addresses[src], self.addresses[dst])
                    owned = (self.owner(packet.src) is not None
                             or self.owner(packet.dst) is not None)
                    if policy == "fail-open":
                        assert not device.wants(packet)
                    elif owned:
                        assert device.wants(packet)
                        assert device.process(packet, self.net.sim.now,
                                              None) is None

    @invariant()
    def live_services_match_the_model(self):
        for asn in ASNS:
            if asn in self.crashed:
                continue
            services = self.nms.devices[asn].services
            held = self.held(asn)
            assert sorted(services) == sorted(held)
            for uid, svc in held.items():
                instance = services[uid]
                assert instance.active == svc["active"]
                for stage, program in (("source", instance.src_program),
                                       ("dest", instance.dst_program)):
                    name = None if program is None else program.graph.name
                    spec = svc[stage]
                    assert name == (None if spec is None else "-".join(spec))


TestDeviceLifecycle = DeviceLifecycle.TestCase
TestDeviceLifecycle.settings = settings(stateful_step_count=25)


# Minimised cases the machine found; each failed before the NMS kept its
# desired state per target AS.

def replay(*steps):
    machine = DeviceLifecycle()
    for name, kwargs in steps:
        getattr(machine, name)(**kwargs)
        machine.crashed_devices_follow_their_fail_policy()
        machine.live_services_match_the_model()
    return machine


def test_deploy_while_crashed_is_installed_after_restart():
    machine = replay(
        ("crash", dict(asn=1, policy="fail-open")),
        ("deploy", dict(asns={0, 1}, dst=None, src=None, uid="acme")),
        ("restart", dict(asn=1)),
        ("heartbeat", {}),
    )
    assert "acme" in machine.nms.devices[1].services


def test_reconcile_restores_each_devices_own_stages():
    machine = replay(
        ("deploy", dict(asns={0}, dst=None, src=("bl-as1",), uid="acme")),
        ("deploy", dict(asns={1}, dst=None, src=None, uid="acme")),
        ("crash", dict(asn=1, policy="fail-open")),
        ("restart", dict(asn=1)),
        ("heartbeat", {}),
    )
    assert machine.nms.devices[1].services["acme"].src_program is None


def test_redeploy_after_restart_keeps_earlier_stages():
    machine = replay(
        ("crash", dict(asn=0, policy="fail-open")),
        ("deploy", dict(asns={0}, dst=None, src=None, uid="acme")),
        ("restart", dict(asn=0)),
        ("deploy", dict(asns={0}, dst=None, src=("bl-as1",), uid="acme")),
        ("heartbeat", {}),
    )
    assert machine.nms.devices[0].services["acme"].dst_program is not None


def test_new_instance_joins_a_deactivation():
    machine = replay(
        ("deploy", dict(asns={0}, dst=None, src=None, uid="acme")),
        ("set_active", dict(active=False, uid="acme")),
        ("deploy", dict(asns={0, 1}, dst=None, src=None, uid="acme")),
    )
    assert machine.nms.devices[1].services["acme"].active is False

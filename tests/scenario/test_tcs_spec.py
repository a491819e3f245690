"""The compiler-registered ``tcs-spec`` defense."""

import dataclasses

from repro.scenario import preset, run_scenario
from repro.scenario.defenses import names
from repro.scenario.spec import DefenseSpec


def with_defense(defense: DefenseSpec):
    return dataclasses.replace(
        preset("spoofed-flood-ingress").scaled(0.3), defense=defense)


def test_registered():
    assert "tcs-spec" in names()


def test_default_spec_stops_the_spoofed_flood():
    undefended = run_scenario(with_defense(DefenseSpec.of("none")))
    defended = run_scenario(with_defense(DefenseSpec.of("tcs-spec")))
    assert undefended.attack_delivered > 0
    assert defended.attack_delivered == 0
    # off-service-UDP scoping: legitimate traffic untouched
    assert defended.legit_goodput == undefended.legit_goodput
    assert defended.collateral == 0.0
    assert "compiled" in defended.notes


def test_rules_parameter_overrides_the_default_policy():
    # a no-op policy (drop ICMP only) must not stop the UDP flood
    spec = DefenseSpec.of("tcs-spec", rules=[
        {"action": "drop", "proto": "icmp", "label": "icmp-only"}])
    defended = run_scenario(with_defense(spec))
    assert defended.attack_delivered > 0


def test_rules_touch_only_the_victims_traffic():
    """Sec. 4.5 scope confinement: a catch-all UDP drop installed by the
    victim must not touch traffic between two other stub hosts."""
    from repro.net import Packet
    from repro.scenario.build import build

    spec = with_defense(DefenseSpec.of("tcs-spec", rules=[
        {"action": "drop", "proto": "udp"}]))
    built = build(spec)
    net = built.network
    others = [a for a in net.topology.stub_ases
              if a != built.victim_asn and a not in built.agent_asns]
    sender, receiver = net.add_host(others[0]), net.add_host(others[-1])
    sender.send(Packet.udp(sender.address, receiver.address, dport=53,
                           kind="bystander"))
    net.run(until=1.0)
    assert receiver.received_by_kind.get("bystander", 0) == 1
    assert not any(router.drops.get("filter:tcs-spec")
                   for router in net.routers.values())

#!/usr/bin/env python3
"""Quickstart: stop a DDoS reflector attack with the traffic control service.

Walks the paper's core story end to end:

1. build a small Internet (AS topology, routers, hosts),
2. launch a DDoS reflector attack against a web site (paper Fig. 1),
3. register the web site's owner with the TCSP (Fig. 4),
4. deploy worldwide anti-spoofing rules through the service (Sec. 4.3),
5. re-run the attack: it now dies at the sources' own ISPs.

Run:  python examples/quickstart.py
"""

from repro.attack import AttackScenario
from repro.core import NumberAuthority, Tcsp, TrafficControlService
from repro.core.apps import AntiSpoofApp
from repro.net import Network, TopologyBuilder
from repro.scenario import AttackSpec
from repro.util.units import fmt_rate


def run_attack(defended: bool) -> None:
    # --- 1. a small Internet: 2 core, 4 transit, 24 stub ASes
    network = Network(TopologyBuilder.hierarchical(
        n_core=2, transit_per_core=2, stub_per_transit=6, seed=7))

    # --- 2. the attack: agents spoof the victim toward innocent DNS servers
    scenario = AttackScenario(network, AttackSpec(
        kind="reflector", n_agents=8, n_reflectors=6,
        attack_rate_pps=400.0, amplification=8.0, reflector_mode="dns",
        duration=0.5), seed=11)

    if defended:
        # --- 3. register ownership of the victim's prefix with the TCSP
        authority = NumberAuthority()
        tcsp = Tcsp("TCSP", authority, network)
        nms = tcsp.contract_isp("world-isp", network.topology.as_numbers)
        victim_prefix = network.topology.prefix_of(scenario.victim_asn)
        authority.record_allocation(victim_prefix, "example-shop")
        user, cert = tcsp.register_user("example-shop", [victim_prefix])
        service = TrafficControlService(tcsp, user, cert, home_nms=nms)

        # --- 4. one call deploys anti-spoofing at every stub border
        deployed = AntiSpoofApp(service).deploy()
        n_devices = sum(len(v) for v in deployed.values())
        print(f"  [TCS] anti-spoofing deployed on {n_devices} adaptive devices")

    # --- 5. run and report
    metrics = scenario.run()
    attack_bps = metrics.attack_bytes_at_victim * 8 / scenario.attack.duration
    print(f"  attack traffic at victim : {metrics.attack_packets_at_victim} packets "
          f"({fmt_rate(attack_bps)})")
    print(f"  legitimate goodput       : {metrics.legit_goodput:.0%}")
    print(f"  wasted transport work    : {metrics.byte_hops_attack:,.0f} byte-hops")
    print(f"  collateral damage        : {metrics.collateral_fraction:.0%}")


def main() -> None:
    print("=== undefended reflector attack (paper Fig. 1) ===")
    run_attack(defended=False)
    print()
    print("=== same attack, victim subscribed to the TCS (Sec. 4.3) ===")
    run_attack(defended=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Distributed firewall: protect long-lived TCP sessions from forged
teardown packets (paper Secs. 2.1 and 4.3).

A B2B portal keeps persistent TCP connections to its partners.  An
attacker injects spoofed TCP RST packets naming the partners' addresses —
each one tears down a connection.  The portal's owner deploys two
firewall rules through the traffic control service; the forged packets
now die inside the network, and the owner reads the drop logs remotely.

Run:  python examples/distributed_firewall.py
"""

from repro.attack import ConnectionPool, ProtocolMisuseAttack
from repro.core import DeploymentScope, NumberAuthority, Tcsp, TrafficControlService
from repro.core.apps import BLOCK_ICMP_UNREACH, BLOCK_RST, DistributedFirewallApp
from repro.core.compose import RuleSpec
from repro.net import Network, TopologyBuilder


def build_world(defended: bool):
    network = Network(TopologyBuilder.hierarchical(2, 2, 5, seed=21))
    stubs = network.topology.stub_ases
    portal = network.add_host(stubs[0])
    partners = [network.add_host(a) for a in stubs[1:6]]
    attacker = network.add_host(stubs[6])
    pool = ConnectionPool(portal)
    for partner in partners:
        pool.establish(partner)

    firewall = None
    if defended:
        authority = NumberAuthority()
        tcsp = Tcsp("TCSP", authority, network)
        tcsp.contract_isp("world-isp", network.topology.as_numbers)
        prefix = network.topology.prefix_of(portal.asn)
        authority.record_allocation(prefix, "b2b-portal")
        user, cert = tcsp.register_user("b2b-portal", [prefix])
        service = TrafficControlService(tcsp, user, cert)
        # the logger runs first, so it also sees the packets the rules drop
        firewall = DistributedFirewallApp(
            service, [RuleSpec(action="log"), BLOCK_RST, BLOCK_ICMP_UNREACH])
        firewall.deploy(DeploymentScope.everywhere())

    ProtocolMisuseAttack(network, attacker, pool, rate_pps=40.0,
                         duration=0.5, mode="rst", seed=5).launch()
    network.run(until=1.0)
    return pool, firewall, (firewall.service if firewall else None)


def main() -> None:
    print("=== without the distributed firewall ===")
    pool, _, _ = build_world(defended=False)
    print(f"  connections surviving the RST attack: "
          f"{pool.alive_count}/{len(pool.connections)}")

    print()
    print("=== with TCS firewall rules (block-rst, block-icmp-unreach) ===")
    pool, firewall, service = build_world(defended=True)
    print(f"  connections surviving the RST attack: "
          f"{pool.alive_count}/{len(pool.connections)}")
    print(f"  forged packets dropped in-network   : {firewall.dropped()}")
    logs = service.read_logs()
    print(f"  log entries readable via the TCSP   : {len(logs)}")


if __name__ == "__main__":
    main()

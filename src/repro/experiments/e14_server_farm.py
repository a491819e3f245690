"""E14 — the server-farm failure mode of congestion-based detection
(paper Sec. 3.1).

"Pushback assumes that DDoS attacks result in overloaded links.  In many
cases, however, an attacked server's resources are exhausted before its
uplink is overloaded.  In particular, this is the case for servers that
are hosted in farms, where the communication link is provisioned to feed
a large number of servers."

Setup: the victim sits behind a generously provisioned farm link (1 Gbit/s)
but can only *service* a bounded packet rate (CPU model).  A moderate
botnet flood exhausts the server while the link stays nearly idle:
pushback's drop-statistics detector never fires.  The TCS, whose rules are
deployed by the *victim* rather than triggered by congestion, still kills
the flood near its sources.
"""

from __future__ import annotations

from repro.attack import DirectFlood
from repro.experiments.common import ExperimentConfig, register
from repro.mitigation import Pushback, PushbackConfig
from repro.net import LinkParams, Network
from repro.scenario import TopologySpec
from repro.scenario.defenses import tcs_blacklist
from repro.util.tables import Table
from repro.util.units import Mbps, ms

__all__ = ["run", "farm_table"]

FARM_LINK = LinkParams(bandwidth=Mbps(1000), delay=ms(2), buffer_bytes=4_000_000)


def _run_once(cfg: ExperimentConfig, defense: str):
    net = Network(TopologySpec(kind="hierarchical", n_core=2,
                               transit_per_core=2,
                               stub_per_transit=6).build(cfg.seed))
    stubs = net.topology.stub_ases
    # farm-hosted victim: fat pipe, bounded service rate
    victim = net.add_host(stubs[0], access=FARM_LINK, processing_pps=1_500.0)
    agents = [net.add_host(a) for a in stubs[1:1 + cfg.scaled(8, minimum=4)]]
    clients = [net.add_host(a) for a in stubs[10:13]]

    pushback = None
    if defense == "pushback":
        pushback = Pushback(PushbackConfig(top_aggregates=3))
        pushback.deploy(net, net.topology.as_numbers, until=1.2)
    elif defense == "tcs":
        tcs_blacklist(net, victim.asn, {a.asn for a in agents})

    DirectFlood(net, agents, victim, rate_pps=500.0, duration=0.8,
                spoof="none", seed=cfg.seed).launch()
    legit_sent = 30
    for i, client in enumerate(clients):
        for j in range(legit_sent // len(clients)):
            net.sim.schedule_at(0.05 + j * 0.08 + i * 0.01, client.send,
                                __import__("repro.net", fromlist=["Packet"])
                                .Packet.udp(client.address, victim.address,
                                            dport=80, size=256, kind="legit"))
    net.run(until=1.3)
    farm_link_util = victim.downlink.tx_bytes * 8 / FARM_LINK.bandwidth / 0.8
    legit_serviced = victim.received_by_kind.get("legit", 0)
    legit_total = legit_serviced + victim.cpu_dropped_by_kind.get("legit", 0)
    return {
        "farm_link_util_%": round(farm_link_util * 100, 1),
        "cpu_dropped": victim.cpu_dropped,
        "pushback_activations": pushback.activations if pushback else "-",
        "legit_serviced_%": round(
            legit_serviced / legit_total * 100 if legit_total else 100.0, 1),
    }


def farm_table(cfg: ExperimentConfig) -> Table:
    table = Table(
        "E14: server-farm failure mode — CPU dies before the link (Sec. 3.1)",
        ["defense", "farm_link_util_%", "victim_cpu_drops",
         "pushback_activations", "legit_serviced_%"],
    )
    for defense in ("none", "pushback", "tcs"):
        row = _run_once(cfg, defense)
        table.add_row(defense, row["farm_link_util_%"], row["cpu_dropped"],
                      row["pushback_activations"], row["legit_serviced_%"])
    table.add_note("the farm link never congests (utilisation ~2%), so "
                   "pushback's drop-statistics detector has nothing to see; "
                   "the victim-deployed TCS blacklist works regardless")
    return table


@register("E14")
def run(cfg: ExperimentConfig) -> list[Table]:
    return [farm_table(cfg)]

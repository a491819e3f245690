"""E8 — protocol-misuse teardown attacks and the TCS firewall (Sec. 4.3).

"Attacks based on protocol misuse like e.g. sending ICMP unreachable or
TCP reset messages to tear down TCP connections can also be filtered out."

Sweep the forged-teardown injection rate and measure connection survival
with and without the victim's distributed-firewall rules; both RST and
ICMP variants.
"""

from __future__ import annotations

from repro.core import DeploymentScope
from repro.core.apps import BLOCK_ICMP_UNREACH, BLOCK_RST, DistributedFirewallApp
from repro.experiments.common import ExperimentConfig, register
from repro.net import Network
from repro.scenario import TopologySpec
from repro.scenario.attacks import launch_teardown, teardown_setup
from repro.scenario.tcs import build_tcs_world
from repro.util.tables import Table

__all__ = ["run", "misuse_table"]


def _world(cfg: ExperimentConfig, firewall: bool, mode: str, rate: float):
    net = Network(TopologySpec(kind="hierarchical", n_core=2,
                               transit_per_core=2,
                               stub_per_transit=5).build(cfg.seed))
    victim, peers, attacker, pool = teardown_setup(net, n_peers=4)
    fw = None
    if firewall:
        world = build_tcs_world(net, owner_asn=victim.asn, service=True)
        fw = DistributedFirewallApp(world.service,
                                    [BLOCK_RST, BLOCK_ICMP_UNREACH])
        fw.deploy(DeploymentScope.everywhere())
    launch_teardown(net, attacker, pool, rate_pps=rate, duration=0.5,
                    mode=mode, seed=cfg.seed)
    net.run(until=1.0)
    return pool, fw


def misuse_table(cfg: ExperimentConfig) -> Table:
    table = Table(
        "E8: connection survival under forged teardown attacks (Sec. 4.3)",
        ["mode", "inject_pps", "survival_no_defense", "survival_with_tcs_fw",
         "fw_drops"],
    )
    for mode in ("rst", "icmp"):
        for rate in (5.0, 20.0, 100.0):
            pool_bare, _ = _world(cfg, firewall=False, mode=mode, rate=rate)
            pool_fw, fw = _world(cfg, firewall=True, mode=mode, rate=rate)
            table.add_row(mode, rate,
                          round(pool_bare.survival_fraction, 2),
                          round(pool_fw.survival_fraction, 2),
                          fw.dropped())
    table.add_note("4 established connections per run; the firewall rules "
                   "run in the victim's destination-owner stage on every "
                   "adaptive device")
    return table


@register("E8")
def run(cfg: ExperimentConfig) -> list[Table]:
    return [misuse_table(cfg)]

"""E4 — the TCS reflector defense: filtering close to the source
(paper Sec. 4.3 + Sec. 6).

The victim deploys TCS anti-spoofing rules at stub borders; we sweep the
fraction of stub ASes offering the service and measure

* the reflected attack rate still reaching the victim,
* the wasted transport work (bits x AS-hops) the attack consumes — the
  Sec. 6 claim: the TCS "frees network resources that are nowadays wasted
  for transporting attack traffic around the globe",
* the mean distance from the source at which attack traffic dies,
* collateral damage (always zero by construction, Sec. 4.5),

and contrasts source-side filtering with an equally-protective *victim-
edge* filter, which saves the victim but wastes the whole transport path.
"""

from __future__ import annotations

import numpy as np

from repro.core.apps import TcsAntiSpoofMitigation
from repro.core.compose import RuleFilter
from repro.experiments.common import ExperimentConfig, register
from repro.net import Flow, FluidNetwork
from repro.scenario import TopologySpec
from repro.scenario.attacks import reflector_fanout, reflector_roles
from repro.scenario.defenses import OFFSERVICE_UDP, victim_user
from repro.util.rng import derive_rng
from repro.util.tables import Table

__all__ = ["run", "defense_sweep_table", "placement_table"]

FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0)


def _build(cfg: ExperimentConfig, trial: int):
    n_ases = cfg.scaled(300, minimum=60)
    topo = TopologySpec(kind="powerlaw", n=n_ases, m=2,
                        seed_offset=trial).build(cfg.seed)
    fluid = FluidNetwork(topo)
    rng = derive_rng(cfg.seed, "e4", trial)
    roles = reflector_roles(topo, rng, cfg.scaled(60, minimum=10),
                            cfg.scaled(30, minimum=5), style="pick-victim")
    model = reflector_fanout(fluid, roles, rate_per_agent=1e6,
                             amplification=5.0)
    legit = [Flow(a, roles.victim_asn, 2e5, kind="legit")
             for a in roles.spare_asns[:10]]
    return topo, fluid, model, legit, roles.victim_asn


def defense_sweep_table(cfg: ExperimentConfig) -> Table:
    table = Table(
        "E4: TCS anti-spoofing vs. deployment fraction of stub borders "
        "(Sec. 4.3 / Sec. 6)",
        ["fraction", "attack_at_victim_frac", "byte_hops_frac",
         "mean_drop_dist_hops", "legit_goodput", "collateral"],
    )
    n_trials = cfg.scaled(4, minimum=2)
    acc: dict[float, list[list[float]]] = {f: [[], [], [], [], []] for f in FRACTIONS}
    for trial in range(n_trials):
        topo, fluid, model, legit, victim_asn = _build(cfg, trial)
        rng = derive_rng(cfg.seed, "e4-deploy", trial)
        stubs = list(topo.stub_ases)
        rng.shuffle(stubs)
        # undefended baseline for normalisation
        req0, res0 = model.evaluate(extra_flows=legit, congestion=False)
        base_attack = res0.delivered_rate("attack-reflected", dst_asn=victim_asn)
        base_byte_hops = (sum(v for k, v in req0.byte_hops.items()
                              if k.startswith("attack"))
                          + sum(v for k, v in res0.byte_hops.items()
                                if k.startswith("attack")))
        # the nested deployments share one set of cores and verdicts
        full = TcsAntiSpoofMitigation(
            [topo.prefix_of(victim_asn)]).fluid_filter(topo, stubs)
        for fraction in FRACTIONS:
            filt = full.restricted(stubs[: int(round(fraction * len(stubs)))])
            req, res = model.evaluate(filters=[filt], extra_flows=legit,
                                      congestion=False)
            attack = res.delivered_rate("attack-reflected", dst_asn=victim_asn)
            byte_hops = (sum(v for k, v in req.byte_hops.items()
                             if k.startswith("attack"))
                         + sum(v for k, v in res.byte_hops.items()
                               if k.startswith("attack")))
            drop_dist = req.drop_distance.get("attack-request", 0.0)
            goodput = res.survival_fraction("legit")
            collateral = 1.0 - goodput
            acc[fraction][0].append(attack / base_attack if base_attack else 0.0)
            acc[fraction][1].append(byte_hops / base_byte_hops if base_byte_hops else 0.0)
            acc[fraction][2].append(drop_dist)
            acc[fraction][3].append(goodput)
            acc[fraction][4].append(collateral)
    for fraction in FRACTIONS:
        a, b, d, g, c = (float(np.mean(v)) for v in acc[fraction])
        table.add_row(fraction, round(a, 3), round(b, 3), round(d, 2),
                      round(g, 3), round(c, 3))
    table.add_note("byte_hops_frac: transport work consumed by attack "
                   "traffic, relative to the undefended run")
    table.add_note("drop distance 0 = killed at the very source AS")
    return table


def placement_table(cfg: ExperimentConfig) -> Table:
    """Source-side TCS filtering vs victim-edge filtering at equal coverage."""
    table = Table(
        "E4b: where filtering happens matters (Sec. 6: freeing wasted "
        "transport resources)",
        ["defense", "attack_at_victim_frac", "byte_hops_frac"],
    )
    topo, fluid, model, legit, victim_asn = _build(cfg, trial=99)
    req0, res0 = model.evaluate(extra_flows=legit, congestion=False)
    base_attack = res0.delivered_rate("attack-reflected", dst_asn=victim_asn)

    def byte_hops(req, res):
        return (sum(v for k, v in req.byte_hops.items() if k.startswith("attack"))
                + sum(v for k, v in res.byte_hops.items() if k.startswith("attack")))

    base_bh = byte_hops(req0, res0)
    # TCS at all stub borders
    mit = TcsAntiSpoofMitigation([topo.prefix_of(victim_asn)])
    req1, res1 = model.evaluate(filters=[mit.fluid_filter(topo, topo.stub_ases)],
                                extra_flows=legit, congestion=False)
    # victim-edge comparator: the distributed-firewall rule at the
    # victim's own AS only
    edge = RuleFilter(topo, [victim_asn], victim_user(topo, victim_asn),
                      "victim-edge", dst_rules=(OFFSERVICE_UDP,))
    req2, res2 = model.evaluate(filters=[edge], extra_flows=legit,
                                congestion=False)
    table.add_row("none", 1.0, 1.0)
    table.add_row("tcs@stub-borders (close to source)",
                  round(res1.delivered_rate("attack-reflected",
                                            dst_asn=victim_asn) / base_attack, 3),
                  round(byte_hops(req1, res1) / base_bh, 3))
    table.add_row("victim-edge filter (close to victim)",
                  round(res2.delivered_rate("attack-reflected",
                                            dst_asn=victim_asn) / base_attack, 3),
                  round(byte_hops(req2, res2) / base_bh, 3))
    table.add_note("both defenses protect the victim; only source-side "
                   "filtering frees the transport path")
    return table


@register("E4")
def run(cfg: ExperimentConfig) -> list[Table]:
    return [defense_sweep_table(cfg), placement_table(cfg)]

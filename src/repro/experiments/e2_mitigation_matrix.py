"""E2 — the mitigation-effectiveness matrix (paper Sec. 3 + 4.3).

For each attack class {direct-spoofed, direct-unspoofed, reflector} and
each defense {none, ingress, route-based, pushback, traceback+filter, SOS,
i3, last-hop, TCS}, run the packet-level scenario and report:

* attack traffic reaching the victim (relative to the undefended run),
* legitimate goodput,
* collateral damage caused *by the defense itself*,
* identified attack sources: true (real agent ASes) vs false (innocents,
  e.g. reflectors).

The paper's Sec. 3 conclusions appear as the matrix's shape: pushback
misfires under spoofing, traceback names the reflectors, overlays cut off
non-participating clients, ingress only helps where agents' ISPs deploy
it, and the TCS stops the reflector attack with zero collateral.

Each cell is one :func:`~repro.scenario.presets.e2_cell` spec run on the
packet engine; the defense wiring lives in :mod:`repro.scenario.defenses`.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentConfig, register
from repro.scenario import MetricSet, PacketEngine, ScenarioSpec, e2_cell
from repro.util.tables import Table

__all__ = ["run", "matrix_table", "run_cell", "cell_spec"]

ATTACKS = ("direct-spoofed", "direct-unspoofed", "reflector")
MITIGATIONS = ("none", "ingress", "rbf", "pushback", "traceback-filter",
               "sos", "i3", "lasthop", "tcs")


def cell_spec(attack_kind: str, mitigation: str,
              cfg: ExperimentConfig) -> ScenarioSpec:
    """The declarative spec for one (attack, defense) matrix cell."""
    return e2_cell(attack_kind, mitigation, seed=cfg.seed).scaled(cfg.scale)


def run_cell(attack_kind: str, mitigation: str,
             cfg: ExperimentConfig) -> MetricSet:
    """Run one (attack, defense) cell of the matrix."""
    return PacketEngine().run(cell_spec(attack_kind, mitigation, cfg))


def matrix_table(cfg: ExperimentConfig) -> Table:
    table = Table(
        "E2: mitigation x attack-class effectiveness matrix (Sec. 3 / 4.3)",
        ["attack", "mitigation", "attack_frac", "legit_goodput",
         "collateral", "ids_true", "ids_false", "notes"],
    )
    for attack_kind in ATTACKS:
        baseline = run_cell(attack_kind, "none", cfg)
        base_pkts = max(1, baseline.attack_delivered)
        for mitigation in MITIGATIONS:
            cell = (baseline if mitigation == "none"
                    else run_cell(attack_kind, mitigation, cfg))
            table.add_row(
                attack_kind, mitigation,
                round(cell.attack_delivered / base_pkts, 3),
                round(cell.legit_goodput, 3),
                round(cell.collateral, 3),
                cell.identified_true, cell.identified_false, cell.notes,
            )
    table.add_note("attack_frac = attack packets at victim relative to the "
                   "undefended run of the same attack")
    table.add_note("SOS/i3 'collateral' counts non-participating legit "
                   "clients cut off at the perimeter")
    return table


@register("E2")
def run(cfg: ExperimentConfig) -> list[Table]:
    return [matrix_table(cfg)]

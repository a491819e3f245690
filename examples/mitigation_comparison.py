#!/usr/bin/env python3
"""Compare the paper's Sec. 3 baselines against the TCS on one attack.

Reproduces, in miniature, the argument of the paper's analysis section:
run the same DDoS reflector attack against each mitigation and print the
effectiveness matrix — who protects the victim, who damages innocents,
and who misidentifies the attack sources.

Run:  python examples/mitigation_comparison.py
"""

from repro.experiments.common import ExperimentConfig
from repro.experiments.e2_mitigation_matrix import MITIGATIONS, run_cell


def main() -> None:
    cfg = ExperimentConfig(seed=3, scale=0.6)
    print("DDoS reflector attack (Fig. 1) vs. every defense from Sec. 3:\n")
    baseline = run_cell("reflector", "none", cfg)
    base = max(1, baseline.attack_delivered)
    header = f"{'defense':<18} {'attack@victim':>13} {'goodput':>8} {'collateral':>10}  sources identified"
    print(header)
    print("-" * len(header))
    for mitigation in MITIGATIONS:
        cell = baseline if mitigation == "none" else run_cell("reflector", mitigation, cfg)
        ids = ""
        if cell.identified_true or cell.identified_false:
            ids = f"{cell.identified_true} real, {cell.identified_false} innocent(!)"
        print(f"{mitigation:<18} {cell.attack_delivered / base:>12.0%} "
              f"{cell.legit_goodput:>8.0%} {cell.collateral:>10.0%}  {ids}")
    print()
    print("Reading the matrix (paper Sec. 3 / 4.3):")
    print(" * traceback names the *reflectors* -> filtering them cuts real services;")
    print(" * pushback's source aggregates are reflectors/innocents too;")
    print(" * SOS/i3 protect the victim but cut off clients that did not join;")
    print(" * ingress filtering works only where the agents' own ISPs deploy it;")
    print(" * the TCS lets the *victim* deploy those ingress rules everywhere —")
    print("   attack dead at the source, zero collateral.")


if __name__ == "__main__":
    main()

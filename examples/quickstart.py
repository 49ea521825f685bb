#!/usr/bin/env python
"""Quickstart: inject faults into a network, prune, and read the report.

This walks the library's primary flow (the question the paper asks):

    How many faults can a network sustain so that it still contains a
    linear-sized subnetwork with approximately the same expansion?

We build a 2-D torus (the CAN-style topology of the paper's Section 4),
subject it to random and adversarial faults at the same budget, and compare
what `Prune` can salvage in each case.

Run:  python examples/quickstart.py
"""

from repro.core import FaultExpansionAnalyzer
from repro.faults import separator_attack
from repro.graphs.generators import torus
from repro.report.tables import format_table


def main() -> None:
    network = torus(16, 2)  # 256 nodes, 4-regular
    analyzer = FaultExpansionAnalyzer(network, mode="node", epsilon=0.5)

    print(f"Network: {network.name} (n={network.n}, m={network.m})")
    baseline = analyzer.baseline_expansion
    print(
        f"Fault-free node expansion: {baseline.value:.4f} "
        f"(certified lower bound {baseline.lower:.4f}, method {baseline.method})\n"
    )

    # --- random faults at 5% ------------------------------------------- #
    report_random = analyzer.random_faults(p=0.05, seed=42)
    print(report_random.render())
    print()

    # --- an adversary with the same expected budget --------------------- #
    budget = report_random.scenario.f
    adversarial = separator_attack(network, budget)
    report_adv = analyzer.analyze_scenario(adversarial)
    print(report_adv.render())
    print()

    # --- side-by-side summary ------------------------------------------ #
    rows = [
        [
            "random",
            report_random.scenario.f,
            report_random.n_surviving,
            f"{report_random.surviving_fraction:.3f}",
            f"{report_random.expansion_retention:.3f}",
        ],
        [
            "adversarial (separator)",
            report_adv.scenario.f,
            report_adv.n_surviving,
            f"{report_adv.surviving_fraction:.3f}",
            f"{report_adv.expansion_retention:.3f}",
        ],
    ]
    print(
        format_table(
            ["fault model", "f", "|H|", "|H|/n", "α(H)/α(G)"],
            rows,
            title="Same budget, different adversaries",
        )
    )
    print(
        "\nTakeaway: pruning away the damaged fringe leaves a large component"
        "\nwhose expansion stays within a constant factor of the original —"
        "\nTheorem 2.1 in action."
    )


if __name__ == "__main__":
    main()

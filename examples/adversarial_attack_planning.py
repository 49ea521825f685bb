#!/usr/bin/env python
"""Adversarial attack planning: how attack strategy interacts with topology.

Section 2 of the paper is a duel: an adversary spends a fault budget to
destroy expansion; `Prune` salvages a well-expanding core.  Theorem 2.1 says
the adversary needs Ω(α·n) faults; Theorem 2.3 exhibits the topology (chain
graphs) where Θ(α·N) faults *shatter everything*.

This example pits four attack strategies against two topologies — a
4-regular expander (robust) and its chain-replacement (fragile) — at equal
budgets, and reports what survives pruning.

Run:  python examples/adversarial_attack_planning.py
"""

import numpy as np

from repro.core import FaultExpansionAnalyzer
from repro.faults import (
    chain_center_attack,
    degree_attack,
    random_attack,
    separator_attack,
)
from repro.graphs.generators import chain_replacement, expander
from repro.graphs.traversal import component_summary
from repro.report.tables import format_table


def attack_table(graph, budget, attacks, analyzer):
    rows = []
    for label, scenario in attacks:
        summary = component_summary(scenario.surviving)
        report = analyzer.analyze_scenario(scenario)
        rows.append(
            [
                label,
                scenario.f,
                summary.largest_size,
                f"{report.surviving_fraction:.3f}",
                f"{report.expansion_retention:.3f}",
            ]
        )
    return format_table(
        ["attack", "f", "largest comp", "|H|/n after prune", "α(H)/α(G)"],
        rows,
        title=f"{graph.name}: attack comparison at budget {budget}",
    )


def main() -> None:
    # --- robust topology: constant-degree expander ---------------------- #
    base = expander(128, 4, seed=1)
    analyzer = FaultExpansionAnalyzer(base, mode="node", epsilon=0.5)
    alpha = analyzer.baseline_expansion.value
    budget = max(4, int(0.05 * base.n))
    attacks = [
        ("random", random_attack(base, budget, seed=0)),
        ("highest-degree", degree_attack(base, budget)),
        ("separator (spectral)", separator_attack(base, budget)),
    ]
    print(f"expander α = {alpha:.4f}")
    print(attack_table(base, budget, attacks, analyzer))
    print()

    # --- fragile topology: the Theorem 2.3 chain graph ------------------ #
    cr = chain_replacement(expander(32, 4, seed=2), k=8)
    h_graph = cr.graph
    analyzer2 = FaultExpansionAnalyzer(h_graph, mode="node", epsilon=0.5)
    alpha2 = analyzer2.baseline_expansion.value
    budget2 = cr.base.m  # the paper's chain-centre budget (one per chain)
    attacks2 = [
        ("random", random_attack(h_graph, budget2, seed=3)),
        ("highest-degree", degree_attack(h_graph, budget2)),
        ("chain centres (Thm 2.3)", chain_center_attack(cr)),
    ]
    print(f"chain graph α = {alpha2:.4f}  (N = {h_graph.n}, budget = {budget2})")
    print(attack_table(h_graph, budget2, attacks2, analyzer2))
    print(
        "\nTakeaway: on the expander no strategy at the Θ(α·n) budget"
        "\ndestroys the prunable core (Theorem 2.1 protects it); on the chain"
        "\ngraph the structured chain-centre attack shatters the network into"
        "\nsublinear fragments exactly as Theorem 2.3 predicts — and no"
        "\npruning can help, because nothing large survives."
    )


if __name__ == "__main__":
    main()

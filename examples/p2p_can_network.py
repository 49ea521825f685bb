#!/usr/bin/env python
"""CAN-style peer-to-peer overlay under churn (paper Section 4).

The paper closes by observing that CAN — whose steady state behaves like a
d-dimensional torus — "can tolerate a fault probability which is inversely
polynomial in its dimension without losing too much in its expansion
properties."  This example makes that concrete:

1. Build CAN overlays of the same size at several dimensions.
2. Subject each to increasing node-failure probabilities (peers leaving
   without notice).
3. Prune and measure: survivor fraction, retained expansion, and routing
   stretch inside the surviving overlay.

Run:  python examples/p2p_can_network.py
"""

import numpy as np

from repro.core import FaultExpansionAnalyzer, bounds
from repro.graphs.generators import can_overlay
from repro.graphs.traversal import largest_component
from repro.routing.paths import stretch_statistics
from repro.report.tables import format_table


def main() -> None:
    n_peers = 256
    rows = []
    for d in (2, 3, 4):
        overlay = can_overlay(n_peers, d, seed=d)
        analyzer = FaultExpansionAnalyzer(overlay, mode="node", epsilon=0.5)
        alpha = analyzer.baseline_expansion.value
        theory_p = bounds.mesh_tolerable_fault_probability(d)
        for p in (0.02, 0.08, 0.15):
            report = analyzer.random_faults(p=p, seed=100 * d + int(p * 100))
            h = report.prune_result.surviving_graph
            if h.n >= 4:
                comp = largest_component(h)
                h_conn = h.subgraph(comp)
                stretch = stretch_statistics(
                    overlay, h_conn, n_pairs=32, seed=7
                ).mean
            else:
                stretch = float("nan")
            rows.append(
                [
                    d,
                    overlay.n,
                    f"{alpha:.3f}",
                    f"{p:.2f}",
                    f"{theory_p:.2e}",
                    f"{report.surviving_fraction:.3f}",
                    f"{report.expansion_retention:.3f}",
                    f"{stretch:.3f}",
                ]
            )
    print(
        format_table(
            [
                "d",
                "peers",
                "α(G)",
                "p churn",
                "thm-3.4 p*",
                "|H|/n",
                "α(H)/α(G)",
                "mean stretch",
            ],
            rows,
            title="CAN overlay churn tolerance by dimension",
        )
    )
    print(
        "\nNotes: the Theorem 3.4 admissible probability (δ = 2d, σ ≤ 2) is"
        "\nextremely conservative — measured overlays tolerate far more churn,"
        "\nbut the *ordering* (higher d ⇒ lower tolerated churn per the bound,"
        "\nhigher measured robustness from degree growth) matches Section 4."
    )


if __name__ == "__main__":
    main()

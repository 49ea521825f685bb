#!/usr/bin/env python
"""Mesh span and random-fault resilience (Theorems 3.4 + 3.6).

The span σ controls how much random fault probability a network tolerates:
``p ≤ 1/(2e·δ^{4σ})`` keeps a half-sized subnetwork with ε·αe edge expansion
(Theorem 3.4).  Theorem 3.6's geometric construction proves σ(mesh) ≤ 2.

This study (a) *measures* the span of meshes — exactly on small ones,
constructively on large ones; (b) sweeps the fault probability on a torus
and reports where `Prune2`'s guarantee empirically stops holding, next to
the (conservative) theory threshold.

Run:  python examples/mesh_resilience_study.py
"""

import numpy as np

from repro.core import bounds
from repro.expansion import estimate_edge_expansion
from repro.faults import random_node_faults
from repro.graphs.generators import mesh, torus
from repro.pruning import prune2
from repro.span import mesh_boundary_tree, random_compact_set, span_exact
from repro.report.tables import format_table


def span_table() -> None:
    rows = []
    for sides in ([3, 4], [2, 2, 3]):
        res = span_exact(mesh(sides), max_nodes=14)
        rows.append([mesh(sides).name, "exact", f"{res.value:.3f}", 2.0])
    for sides in ([16, 16], [8, 8, 8]):
        g = mesh(sides)
        best = 0.0
        accepted = 0
        seed = 0
        while accepted < 30 and seed < 500:
            u = random_compact_set(g, seed=seed)
            seed += 1
            if u is None:
                continue
            r = mesh_boundary_tree(g, u)
            accepted += 1
            if r.virtual_connected:
                best = max(best, r.ratio)
        rows.append([g.name, f"constructive ({accepted} samples)", f"{best:.3f}", 2.0])
    print(format_table(["mesh", "method", "span", "Thm 3.6 bound"], rows,
                       title="Span of d-dimensional meshes"))


def prune2_sweep() -> None:
    g = torus(14, 2)
    delta = g.max_degree
    eps = 1.0 / (2 * delta)
    alpha_e = estimate_edge_expansion(g).value
    theory = bounds.theorem34_conditions(g.n, delta, sigma=2.0)
    rows = []
    for p in (theory["p_max"], 0.02, 0.05, 0.1, 0.2, 0.3, 0.4):
        ok = 0
        trials = 5
        for t in range(trials):
            sc = random_node_faults(g, p, seed=1000 + t)
            res = prune2(sc.surviving, alpha_e, eps)
            h = res.surviving_graph
            good_size = h.n >= g.n / 2
            good_exp = (
                h.n >= 2 and estimate_edge_expansion(h).value >= eps * alpha_e - 1e-9
            )
            ok += int(good_size and good_exp)
        rows.append([f"{p:.2e}", f"{ok}/{trials}"])
    print()
    print(
        format_table(
            ["fault probability p", "Prune2 guarantee holds"],
            rows,
            title=(
                f"{g.name}: Theorem 3.4 sweep "
                f"(theory p* = {theory['p_max']:.2e}, ε = {eps:.3f}, "
                f"αe = {alpha_e:.3f})"
            ),
        )
    )
    print(
        "\nThe empirical threshold sits orders of magnitude above the theory"
        "\nvalue — the paper itself flags the δ^{4σ} dependency as loose"
        "\n(Section 4, open problems)."
    )


def main() -> None:
    span_table()
    prune2_sweep()


if __name__ == "__main__":
    main()

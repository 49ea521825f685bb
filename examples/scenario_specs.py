#!/usr/bin/env python
"""Declarative scenarios: describe experiments as data, run them as a batch.

The scenario API (``repro.api``) turns the library's fault-tolerance
pipeline into three serialisable records — graph, fault, analysis — plus a
seed.  This example builds a 40-scenario sweep (two topologies × two fault
models × seeds), runs it across worker processes with baseline expansion
estimates deduplicated per graph, and shows the JSON form that
``python -m repro run-batch`` accepts.

Run:  python examples/scenario_specs.py
"""

import json

from repro.api import (
    AnalysisSpec,
    FaultSpec,
    GraphSpec,
    ScenarioSpec,
    run,
    run_batch,
)
from repro.report.tables import format_row_dicts


def main() -> None:
    torus = GraphSpec("torus", {"sides": 12, "d": 2})
    expander = GraphSpec("expander", {"n": 128, "degree": 4, "seed": 99})

    # -- one scenario, fully declarative --------------------------------- #
    single = ScenarioSpec(
        graph=torus,
        fault=FaultSpec("random_node", {"p": 0.08}),
        analysis=AnalysisSpec(mode="node", pruner="prune", epsilon=0.5),
        seed=7,
        label="torus @ p=0.08",
    )
    print("A scenario is just JSON:")
    print(json.dumps(single.to_dict(), indent=2)[:400], "...\n")

    result = run(single)
    print(f"run() -> |H|={result.n_surviving}/{result.n_original}, "
          f"retention={result.expansion_retention:.3f}, "
          f"hash={result.spec_hash}\n")

    # -- a 40-scenario sweep through run_batch ---------------------------- #
    specs = [
        ScenarioSpec(
            graph=graph,
            fault=FaultSpec(model, params),
            analysis=AnalysisSpec(mode="node"),
            seed=seed,
            label=f"{graph.generator}:{model}",
        )
        for graph in (torus, expander)
        for model, params in (
            ("random_node", {"p": 0.05}),
            ("separator", {"budget": 6}),
        )
        for seed in range(10)
    ]
    results = run_batch(specs, workers=4)
    # Aggregate per (graph, fault model): the per-spec baselines were
    # computed once per graph, not once per scenario.
    rows = []
    for label in sorted({r.label for r in results}):
        group = [r for r in results if r.label == label]
        rows.append(
            {
                "scenario": label,
                "runs": len(group),
                "mean_H_frac": round(
                    sum(r.surviving_fraction for r in group) / len(group), 4
                ),
                "alpha_G": round(group[0].baseline_expansion, 4),
            }
        )
    print(format_row_dicts(rows, title="40-scenario batch (4 workers)"))

    # -- reproducibility: same (spec, seed) -> same fingerprint ----------- #
    again = run(single)
    assert again.fingerprint() == result.fingerprint()
    print("\nreplayed fingerprint matches:", again.fingerprint())


if __name__ == "__main__":
    main()

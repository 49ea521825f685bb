#!/usr/bin/env python
"""Regenerate the Section 1.1 survey: critical probabilities by family.

The paper's introduction surveys critical survival probabilities for the
classical families (Erdős–Rényi, Kesten, Ajtai–Komlós–Szemerédi,
Karlin–Nelson–Tamaki).  This example measures each threshold with the
percolation engine and prints it next to the literature value.

Finite-size effects matter: thresholds are asymptotic statements, and the
measured crossing point converges toward the literature value as instances
grow (pass --scale 2 to see the drift shrink).

Run:  python examples/percolation_thresholds.py [--scale 2]
"""

import argparse

from repro.core.experiments import experiment_e8_percolation_table
from repro.report.tables import format_row_dicts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=1, help="instance size multiplier")
    parser.add_argument("--trials", type=int, default=10, help="MC trials per probe")
    args = parser.parse_args()

    rows = experiment_e8_percolation_table(
        seed=0, scale=args.scale, n_trials=args.trials, tol=0.02
    )
    print(format_row_dicts(rows, title="Critical probabilities: paper survey vs measured"))
    print(
        "\nReading: 'literature_p*' is the asymptotic threshold the paper"
        "\ncites; 'measured_p*' is the bracket midpoint where the largest-"
        "\ncomponent fraction crosses 0.2 on our finite instances."
    )


if __name__ == "__main__":
    main()

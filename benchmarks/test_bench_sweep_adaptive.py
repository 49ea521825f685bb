"""Adaptive sampling three ways on an e5-style disintegration sweep.

The claim the sweep layer has to earn (ROADMAP item 5): the adaptive
allocators reproduce the fixed-allocation γ(p) curve *within confidence
intervals* at a fraction of the trials.  Three policies run the same
grid:

* ``fixed`` — every point gets the full ``TRIALS_CAP``;
* ``ci_width`` — the PR3 baseline: tighten every point to ``target``;
* ``transition`` — fit the curve online and concentrate trials where
  predicted |dγ/dp| × CI half-width peaks, relaxing width targets on
  plateaus and where a tighter CI could not move the fitted curve by
  more than one grid step.

The pinned win: ``transition`` needs at most **half** the trials
``ci_width`` does (in practice ~1/3, and ~1/6 of fixed) while every
point still agrees with the fixed curve within the joint CI.  The
comparison is written to ``benchmarks/results/BENCH_adaptive.json``
(uploaded as a CI artifact) so the trajectory of that ratio is tracked.
"""

import json

from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.sweeps import Axis, SamplingPolicy, SweepSpec, run_sweep

#: Fault probabilities spanning the torus's disintegration curve: the ends
#: are low-variance plateaus, the middle straddles the noisy transition.
P_VALUES = (0.05, 0.12, 0.20, 0.30, 0.40, 0.45, 0.50, 0.60, 0.75)
TRIALS_CAP = 40
TARGET_HALFWIDTH = 0.025


def _sweep(policy: SamplingPolicy) -> SweepSpec:
    return SweepSpec(
        base=ScenarioSpec(
            graph=GraphSpec("torus", {"sides": 20, "d": 2}),
            fault=FaultSpec("random_node", {"p": P_VALUES[0]}),
            analysis=AnalysisSpec(mode="node", pruner=None, measure_expansion=False),
        ),
        axes=(Axis("fault.params.p", P_VALUES),),
        trials=TRIALS_CAP,
        seed=2004,
        metrics=("gamma",),
        policy=policy,
        label="bench-adaptive",
    )


def _adaptive(kind: str) -> SamplingPolicy:
    return SamplingPolicy(
        kind=kind, target=TARGET_HALFWIDTH, min_trials=5, chunk=5
    )


def _run_all():
    results = {"fixed": run_sweep(_sweep(SamplingPolicy()), Session())}
    for kind in ("ci_width", "transition"):
        results[kind] = run_sweep(_sweep(_adaptive(kind)), Session())
    return results


def test_bench_sweep_adaptive(benchmark, report_table, results_dir):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    fixed = results["fixed"]

    rows = []
    for idx, pf in enumerate(fixed.points):
        sf = pf.stats["gamma"]
        row = {
            "p": pf.coord_dict()["fault.params.p"],
            "fixed_trials": pf.n_trials,
            "fixed_gamma": round(sf.mean, 4),
            "fixed_hw": round(sf.halfwidth, 4),
        }
        for kind in ("ci_width", "transition"):
            pa = results[kind].points[idx]
            sa = pa.stats["gamma"]
            row[f"{kind}_trials"] = pa.n_trials
            row[f"{kind}_gamma"] = round(sa.mean, 4)
        rows.append(row)
    totals = {"p": "TOTAL", "fixed_trials": fixed.total_trials,
              "fixed_gamma": "", "fixed_hw": ""}
    for kind in ("ci_width", "transition"):
        totals[f"{kind}_trials"] = results[kind].total_trials
        totals[f"{kind}_gamma"] = ""
    rows.append(totals)
    report_table(
        "sweep_adaptive",
        rows,
        title="Adaptive allocation three ways — γ(p) disintegration",
    )

    record = {
        "p_values": list(P_VALUES),
        "trials_cap": TRIALS_CAP,
        "target_halfwidth": TARGET_HALFWIDTH,
        "totals": {k: r.total_trials for k, r in results.items()},
        "rounds": {k: r.rounds for k, r in results.items()},
        "ratio_vs_ci_width": {
            k: round(
                results[k].total_trials / results["ci_width"].total_trials, 4
            )
            for k in ("transition",)
        },
        "ratio_vs_fixed": {
            k: round(results[k].total_trials / fixed.total_trials, 4)
            for k in ("ci_width", "transition")
        },
        "fingerprints": {k: r.fingerprint() for k, r in results.items()},
    }
    (results_dir / "BENCH_adaptive.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    ci_width = results["ci_width"]
    # the baseline itself must beat fixed (the PR3 claim still holds)
    assert ci_width.total_trials <= 0.75 * fixed.total_trials
    # the pinned win: transition needs at most half the ci_width trials
    transition = results["transition"]
    assert transition.total_trials <= 0.5 * ci_width.total_trials, (
        f"transition spent {transition.total_trials} "
        f"of ci_width's {ci_width.total_trials}"
    )
    # every policy reproduces the fixed γ(p) curve within the joint CI
    for kind in ("ci_width", "transition"):
        for pa, pf in zip(results[kind].points, fixed.points):
            sa, sf = pa.stats["gamma"], pf.stats["gamma"]
            assert abs(sa.mean - sf.mean) <= (
                sa.halfwidth + sf.halfwidth + 1e-9
            ), (
                f"{kind} p={pa.coord_dict()['fault.params.p']} diverges "
                f"from the fixed curve"
            )

"""Cross-grid-point batching must be invisible in the results.

``run_points`` stacks several grid points' trials into one mask tensor;
the component kernel is row-independent, so every record must be
bit-identical to the per-point ``run_trials`` path — same aggregates,
same samples, same sweep fingerprints.  These tests pin that at every
layer the stacking touches: the engine, ``Session.run_points_batched``,
``execute_units``'s stacking dispatch, the threshold probe ladder, and
the scheduler's ``merge_points`` job merging.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.sweeps import Axis, SweepSpec, run_sweep
from repro.batch import engine as batch_engine
from repro.errors import SpecError
from repro.graphs.generators import mesh
from repro.percolation import threshold
from repro.percolation.threshold import estimate_critical_probability
from repro.testing import scalar_site_percolation, scalar_sweep

pytestmark = pytest.mark.differential

MEASURE_ONLY = AnalysisSpec(mode="node", pruner=None, measure_expansion=False)
TORUS = GraphSpec("torus", {"sides": 6, "d": 2})


def _point(p, n_trials, seed0=0):
    """One grid point: homogeneous specs differing only in seed."""
    return [
        ScenarioSpec(
            graph=TORUS,
            fault=FaultSpec("random_node", {"p": p}),
            analysis=MEASURE_ONLY,
            seed=seed0 + t,
        )
        for t in range(n_trials)
    ]


def _payload(r):
    return {k: v for k, v in r.to_dict().items() if k != "timings"}


# --------------------------------------------------------------------- #
# stack_key
# --------------------------------------------------------------------- #


def test_stack_key_groups_by_graph_and_analysis():
    a = _point(0.1, 1)[0]
    b = _point(0.4, 1, seed0=9)[0]  # different fault params, same key
    assert batch_engine.stack_key(a) == batch_engine.stack_key(b)
    other_graph = ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 8, "d": 2}),
        fault=FaultSpec("random_node", {"p": 0.1}),
        analysis=MEASURE_ONLY,
    )
    assert batch_engine.stack_key(a) != batch_engine.stack_key(other_graph)


def test_stack_key_none_for_unbatchable():
    pruned = ScenarioSpec(
        graph=TORUS, analysis=AnalysisSpec(mode="node", pruner="prune")
    )
    assert batch_engine.stack_key(pruned) is None


# --------------------------------------------------------------------- #
# run_points == per-point run_trials, bit for bit
# --------------------------------------------------------------------- #


def test_run_points_matches_per_point_run_trials():
    groups = [_point(0.1, 4), _point(0.3, 3, seed0=50), _point(0.5, 5, seed0=90)]
    stacked = batch_engine.run_points(groups)
    assert [len(rs) for rs in stacked] == [4, 3, 5]
    for group, stacked_group in zip(groups, stacked):
        solo = batch_engine.run_trials(group)
        assert [_payload(r) for r in stacked_group] == [_payload(r) for r in solo]


def test_run_points_rejects_mixed_stack_keys():
    other = [
        ScenarioSpec(
            graph=GraphSpec("torus", {"sides": 8, "d": 2}),
            fault=FaultSpec("random_node", {"p": 0.2}),
            analysis=MEASURE_ONLY,
            seed=1,
        )
    ]
    with pytest.raises(SpecError):
        batch_engine.run_points([_point(0.2, 2), other])


def test_session_run_points_batched_matches_and_caches(tmp_path):
    groups = [_point(0.2, 3), _point(0.4, 3, seed0=30)]
    cold = Session(store=str(tmp_path / "a"))
    out = cold.run_points_batched(groups)
    per_point = Session()
    expected = [per_point.run_trials_batched(g) for g in groups]
    assert [[_payload(r) for r in rs] for rs in out] == [
        [_payload(r) for r in rs] for rs in expected
    ]
    # warm rerun serves every trial from the store
    warm = Session(store=str(tmp_path / "a"))
    again = warm.run_points_batched(groups)
    assert warm.hits == 6 and warm.misses == 0
    assert [[_payload(r) for r in rs] for rs in again] == [
        [_payload(r) for r in rs] for rs in out
    ]


# --------------------------------------------------------------------- #
# sweep-level stacking (execute_units) keeps fingerprints
# --------------------------------------------------------------------- #


def _sweep_spec(trials=4):
    return SweepSpec(
        base=ScenarioSpec(
            graph=TORUS,
            fault=FaultSpec("random_node", {"p": 0.1}),
            analysis=MEASURE_ONLY,
        ),
        axes=[Axis("fault.params.p", [0.1, 0.25, 0.4, 0.55])],
        trials=trials,
        seed=13,
    )


def test_sweep_fingerprint_identical_across_batch_modes():
    spec = _sweep_spec()
    stacked = run_sweep(spec, Session())
    scalar = scalar_sweep(spec)
    assert stacked.fingerprint() == scalar.fingerprint()


# --------------------------------------------------------------------- #
# threshold probe ladder
# --------------------------------------------------------------------- #


def test_ladder_one_matches_legacy_bisection(monkeypatch):
    g = mesh([12, 12])
    default = estimate_critical_probability(
        g, mode="site", n_trials=6, tol=0.05, seed=3, ladder=1
    )
    # the legacy bracket: the same bisection with every probe's trials
    # run as the scalar per-trial loop
    monkeypatch.setattr(threshold, "site_percolation", scalar_site_percolation)
    legacy = estimate_critical_probability(
        g, mode="site", n_trials=6, tol=0.05, seed=3
    )
    assert (default.lo, default.hi, default.n_probes) == (
        legacy.lo, legacy.hi, legacy.n_probes,
    )


@pytest.mark.parametrize("mode", ["site", "bond"])
@pytest.mark.parametrize("ladder", [2, 4, 7])
def test_ladder_brackets_are_valid_and_deterministic(mode, ladder):
    g = mesh([10, 10])
    est = estimate_critical_probability(
        g, mode=mode, n_trials=6, tol=0.03, seed=17, ladder=ladder
    )
    assert 0.0 <= est.lo < est.hi <= 1.0
    assert est.width <= 0.03 or est.n_probes >= 30
    again = estimate_critical_probability(
        g, mode=mode, n_trials=6, tol=0.03, seed=17, ladder=ladder
    )
    assert (again.lo, again.hi, again.n_probes) == (est.lo, est.hi, est.n_probes)


def test_ladder_agrees_with_bisection_within_resolution():
    g = mesh([14, 14])
    a = estimate_critical_probability(g, n_trials=12, tol=0.02, seed=5)
    b = estimate_critical_probability(g, n_trials=12, tol=0.02, seed=5, ladder=6)
    # independent Monte-Carlo schedules: brackets must land near each other
    assert abs(a.midpoint - b.midpoint) <= 3 * (a.width + b.width)


# --------------------------------------------------------------------- #
# scheduler point merging
# --------------------------------------------------------------------- #


def test_scheduler_merge_points_keeps_fingerprint(tmp_path):
    from repro.service.scheduler import Scheduler
    from repro.api.sweeps import execute_units

    spec = _sweep_spec(trials=3)
    baseline = run_sweep(spec, Session()).fingerprint()

    def drive(merge):
        sched = Scheduler(merge_points=merge, job_chunk=None)
        entry, _ = sched.submit(spec)
        session = Session()
        merged_jobs = 0
        while entry.state == "running":
            popped = sched.next_job()
            assert popped is not None, "running sweep with no queued jobs"
            job, sweep_dict = popped
            merged_jobs += len(job.segments) > 1
            payload = {k: v for k, v in sweep_dict.items() if k != "__hash__"}
            sweep = SweepSpec.from_dict(payload)
            points = sweep.points()
            units = [
                (p, t)
                for p, s, n in job.segments
                for t in range(s, s + n)
            ]
            specs = [sweep.trial_spec(points[p], t) for p, t in units]
            sched.job_done(job.key, execute_units(session, units, specs))
        assert entry.state == "done"
        return entry.fingerprint, merged_jobs

    merged_fp, merged_count = drive(merge=True)
    solo_fp, solo_count = drive(merge=False)
    assert merged_fp == solo_fp == baseline
    assert merged_count > 0  # merging actually produced multi-segment jobs
    assert solo_count == 0


def test_scheduler_merge_respects_job_chunk():
    from repro.service.scheduler import Scheduler

    spec = _sweep_spec(trials=4)
    sched = Scheduler(merge_points=True, job_chunk=5)
    entry, _ = sched.submit(spec)
    seen = 0
    while True:
        popped = sched.next_job()
        if popped is None:
            break
        job, _ = popped
        assert job.n_trials <= 5
        seen += 1
    assert seen >= 2

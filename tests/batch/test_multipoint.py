"""Cross-grid-point batching must be invisible in the results.

``run_points`` stacks several grid points' trials into one mask tensor;
the component kernel is row-independent, so every record must be
bit-identical to the per-point ``run_trials`` path — same aggregates,
same samples, same sweep fingerprints.  These tests pin that at every
layer the stacking touches: the engine, ``Session.run_points_batched``,
``execute_units``'s stacking dispatch, threshold bisection, and the
scheduler's point-merging jobs.
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
        assert [r.to_dict() for r in stacked_group] == [r.to_dict() for r in solo]


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
    assert [[r.to_dict() for r in rs] for rs in out] == [
        [r.to_dict() for r in rs] for rs in expected
    ]
    # warm rerun serves every trial from the store
    warm = Session(store=str(tmp_path / "a"))
    again = warm.run_points_batched(groups)
    assert warm.hits == 6 and warm.misses == 0
    assert [[r.to_dict() for r in rs] for rs in again] == [
        [r.to_dict() for r in rs] for rs in out
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
# threshold bisection
# --------------------------------------------------------------------- #


def test_bisection_matches_scalar_percolation_loop(monkeypatch):
    g = mesh([12, 12])
    default = estimate_critical_probability(
        g, mode="site", n_trials=6, tol=0.05, seed=3
    )
    # the same bisection with every probe's trials run as the scalar
    # per-trial loop
    monkeypatch.setattr(threshold, "site_percolation", scalar_site_percolation)
    scalar = estimate_critical_probability(
        g, mode="site", n_trials=6, tol=0.05, seed=3
    )
    assert (default.lo, default.hi, default.n_probes) == (
        scalar.lo, scalar.hi, scalar.n_probes,
    )


# --------------------------------------------------------------------- #
# scheduler point merging
# --------------------------------------------------------------------- #


def test_scheduler_point_merging_keeps_fingerprint(tmp_path):
    from repro.service.scheduler import Scheduler
    from repro.api.sweeps import execute_units

    spec = _sweep_spec(trials=3)
    baseline = run_sweep(spec, Session()).fingerprint()

    def drive(job_chunk):
        sched = Scheduler(job_chunk=job_chunk)
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

    merged_fp, merged_count = drive(job_chunk=None)
    solo_fp, solo_count = drive(job_chunk=1)
    assert merged_fp == solo_fp == baseline
    assert merged_count > 0  # merging actually produced multi-segment jobs
    assert solo_count == 0  # a one-trial bound leaves nothing to merge


def test_scheduler_merge_respects_job_chunk():
    from repro.service.scheduler import Scheduler

    spec = _sweep_spec(trials=4)
    sched = Scheduler(job_chunk=5)
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

"""Scheduler unit tests: dedup, priority, cancel, requeue, determinism.

Everything here drives the :class:`~repro.service.scheduler.Scheduler`
by hand — ``submit → next_job → job_done`` — with no processes, sockets
or threads involved.  The capstone test executes the popped jobs through
an inline :class:`~repro.api.session.Session` and asserts the resulting
fingerprint is bit-identical to a local :func:`run_sweep`.
"""

import pytest

from repro.api.session import Session
from repro.api.store import ResultStore
from repro.api.sweeps import SweepSpec, execute_units, run_sweep
from repro.service.metrics import Counters
from repro.service.scheduler import Scheduler, SchedulerError


def _drive(scheduler, session):
    """Execute every queued job like a (serial) worker pool would,
    reconstructing the spec from the shipped dict exactly as the real
    worker does."""
    while (popped := scheduler.next_job()) is not None:
        job, spec_dict = popped
        payload = {k: v for k, v in spec_dict.items() if k != "__hash__"}
        sweep = SweepSpec.from_dict(payload)
        assert spec_dict["__hash__"] == sweep.hash()
        points = sweep.points()
        units = [
            (point_index, t)
            for point_index, trial_start, n in job.segments
            for t in range(trial_start, trial_start + n)
        ]
        specs = [sweep.trial_spec(points[i], t) for i, t in units]
        h0, m0 = session.hits, session.misses
        results = execute_units(session, units, specs)
        scheduler.job_done(
            job.key, results,
            hits=session.hits - h0, misses=session.misses - m0,
        )


class TestDedup:
    def test_identical_submissions_share_one_entry(self, sweep):
        sched = Scheduler()
        first, deduped_a = sched.submit(sweep)
        second, deduped_b = sched.submit(sweep)
        assert not deduped_a and deduped_b
        assert first is second
        assert first.dedup_count == 1
        assert sched.counters.get("sweeps_deduped_total") == 1
        assert sched.counters.get("sweeps_submitted_total") == 1

    def test_different_specs_get_distinct_entries(self, sweep, make_sweep):
        sched = Scheduler()
        a, _ = sched.submit(sweep)
        b, deduped = sched.submit(make_sweep(seed=99))
        assert a is not b and not deduped

    def test_completed_sweep_still_dedups(self, sweep, tmp_path):
        sched = Scheduler(store=ResultStore(tmp_path / "store"))
        session = Session(store=ResultStore(tmp_path / "store"), workers=1)
        entry, _ = sched.submit(sweep)
        _drive(sched, session)
        assert entry.state == "done"
        again, deduped = sched.submit(sweep)
        assert deduped and again is entry

    def test_failed_sweep_is_evicted_for_retry(self, sweep):
        sched = Scheduler(max_attempts=1)
        entry, _ = sched.submit(sweep)
        job, _ = sched.next_job()
        sched.requeue(job.key, "worker died")  # budget of 1 -> fail
        assert entry.state == "failed"
        fresh, deduped = sched.submit(sweep)
        assert not deduped and fresh is not entry


class TestPriorityAndOrdering:
    def test_lower_priority_value_drains_first(self, sweep, make_sweep):
        sched = Scheduler()
        low_urgency, _ = sched.submit(sweep, priority=5)
        high_urgency, _ = sched.submit(make_sweep(seed=99), priority=0)
        # every job of the priority-0 sweep drains before any priority-5 job
        order = []
        while (popped := sched.next_job()) is not None:
            order.append(popped[0].sweep_id)
        split = order.index(low_urgency.id)
        assert set(order[:split]) == {high_urgency.id}
        assert set(order[split:]) == {low_urgency.id}

    def test_job_chunk_splits_requests(self, sweep):
        sched = Scheduler(job_chunk=1)
        sched.submit(sweep)
        sizes = []
        while (popped := sched.next_job()) is not None:
            sizes.append(popped[0].n_trials)
        # 2 points x 3 trials, one trial per job
        assert sizes == [1] * 6


class TestCancel:
    def test_cancel_drops_queued_jobs(self, sweep):
        sched = Scheduler()
        entry, _ = sched.submit(sweep)
        sched.cancel(entry.id)
        assert entry.state == "cancelled"
        assert sched.next_job() is None
        assert sched.counters.get("sweeps_cancelled_total") == 1

    def test_inflight_completion_after_cancel_is_dropped(self, sweep):
        sched = Scheduler()
        entry, _ = sched.submit(sweep)
        job, _ = sched.next_job()
        sched.cancel(entry.id)
        # the worker's late payload must not resurrect the sweep
        sched.job_done(job.key, [])
        assert entry.state == "cancelled"

    def test_cancel_unknown_sweep_raises(self):
        with pytest.raises(SchedulerError):
            Scheduler().cancel("sw99-nope")


class TestRequeue:
    def test_requeue_bumps_generation_and_requeues(self, sweep):
        sched = Scheduler(max_attempts=3)
        entry, _ = sched.submit(sweep)
        job, _ = sched.next_job()
        old_key = job.key
        assert sched.requeue(old_key, "crash")
        assert job.generation == 1 and job.state == "queued"
        # the stale completion is silently dropped
        sched.job_done(old_key, [])
        assert entry.state == "running"
        assert sched.counters.get("jobs_requeued_total") == 1

    def test_attempt_budget_exhaustion_fails_sweep(self, sweep):
        sched = Scheduler(max_attempts=2)
        entry, _ = sched.submit(sweep)
        job, _ = sched.next_job()
        assert sched.requeue(job.key, "crash 1")
        job2, _ = sched.next_job()
        assert job2.id == job.id
        assert not sched.requeue(job2.key, "crash 2")
        assert entry.state == "failed"
        assert "crash 2" in entry.error

    def test_worker_exception_fails_sweep_immediately(self, sweep):
        sched = Scheduler()
        entry, _ = sched.submit(sweep)
        job, _ = sched.next_job()
        sched.job_failed(job.key, "ValueError: boom")
        assert entry.state == "failed"
        assert "boom" in entry.error

    def test_wrong_result_count_fails_sweep(self, sweep):
        sched = Scheduler()
        entry, _ = sched.submit(sweep)
        job, _ = sched.next_job()
        sched.job_done(job.key, [])  # job.n_trials results expected
        assert entry.state == "failed"


class TestDraining:
    def test_draining_rejects_submissions(self, sweep):
        sched = Scheduler()
        sched.draining = True
        with pytest.raises(SchedulerError):
            sched.submit(sweep)


class TestDeterminism:
    def test_hand_driven_fingerprint_matches_run_sweep(self, sweep, tmp_path):
        reference = run_sweep(
            sweep, Session(store=ResultStore(tmp_path / "ref"), workers=1)
        )
        sched = Scheduler(store=ResultStore(tmp_path / "svc"))
        session = Session(store=ResultStore(tmp_path / "svc"), workers=1)
        entry, _ = sched.submit(sweep)
        _drive(sched, session)
        assert entry.state == "done"
        assert entry.fingerprint == reference.fingerprint()
        assert entry.result.rows() == reference.rows()

    def test_chunked_jobs_fingerprint_identical(self, sweep, tmp_path):
        reference = run_sweep(
            sweep, Session(store=ResultStore(tmp_path / "ref"), workers=1)
        )
        sched = Scheduler(store=ResultStore(tmp_path / "svc"), job_chunk=1)
        session = Session(store=ResultStore(tmp_path / "svc"), workers=1)
        entry, _ = sched.submit(sweep)
        _drive(sched, session)
        assert entry.fingerprint == reference.fingerprint()

    @pytest.mark.parametrize("kind", ["transition"])
    def test_adaptive_kinds_distributed_identical(self, make_sweep, tmp_path, kind):
        """The stateful allocator makes the same decisions whether the
        driver runs inside run_sweep or behind the scheduler's job loop."""
        import dataclasses

        from repro.api.sweeps import SamplingPolicy

        sweep = dataclasses.replace(
            make_sweep(values=(0.05, 0.2, 0.5), trials=8),
            policy=SamplingPolicy(kind=kind, target=0.04, min_trials=2, chunk=2),
        )
        reference = run_sweep(
            sweep, Session(store=ResultStore(tmp_path / "ref"), workers=1)
        )
        sched = Scheduler(store=ResultStore(tmp_path / "svc"), job_chunk=1)
        session = Session(store=ResultStore(tmp_path / "svc"), workers=1)
        entry, _ = sched.submit(sweep)
        _drive(sched, session)
        assert entry.state == "done"
        assert entry.fingerprint == reference.fingerprint()
        assert entry.result.rows() == reference.rows()
        status = sched.status(entry.id)
        assert status["allocator"]["kind"] == kind

    def test_fully_warm_sweep_completes_inside_submit(self, sweep, tmp_path):
        store_dir = tmp_path / "warm"
        reference = run_sweep(
            sweep, Session(store=ResultStore(store_dir), workers=1)
        )
        counters = Counters()
        sched = Scheduler(store=ResultStore(store_dir), counters=counters)
        entry, _ = sched.submit(sweep)
        assert entry.state == "done"  # no job ever dispatched
        assert entry.fingerprint == reference.fingerprint()
        assert counters.get("jobs_warm_total") > 0
        assert counters.get("store_misses_total") == 0
        assert sched.next_job() is None

"""Unit tests for the batched engine's eligibility, validation and wiring."""

from __future__ import annotations

import pytest

from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.sweeps import Axis, SweepSpec, run_sweep
from repro.batch import engine as batch_engine
from repro.errors import SpecError
from repro.testing import scalar_sweep

MEASURE_ONLY = AnalysisSpec(mode="node", pruner=None, measure_expansion=False)
TORUS = GraphSpec("torus", {"sides": 6, "d": 2})


def _spec(seed=0, **kwargs):
    defaults = dict(
        graph=TORUS,
        fault=FaultSpec("random_node", {"p": 0.2}),
        analysis=MEASURE_ONLY,
        seed=seed,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


# --------------------------------------------------------------------- #
# supports()
# --------------------------------------------------------------------- #


def test_supports_measure_only_random_faults():
    assert batch_engine.supports(_spec())
    assert batch_engine.supports(_spec(fault=None))


def test_supports_rejects_pruning_and_expansion_measurement():
    assert not batch_engine.supports(
        _spec(analysis=AnalysisSpec(mode="node", pruner="prune"))
    )
    assert not batch_engine.supports(
        _spec(analysis=AnalysisSpec(mode="node", pruner=None,
                                    measure_expansion=True))
    )


def test_supports_rejects_unsampled_fault_models():
    assert not batch_engine.supports(
        _spec(fault=FaultSpec("separator", {"budget": 2}))
    )
    assert not batch_engine.supports("not a spec")


# --------------------------------------------------------------------- #
# run_trials validation
# --------------------------------------------------------------------- #


def test_run_trials_empty_input():
    assert batch_engine.run_trials([]) == []


def test_run_trials_rejects_heterogeneous_batches():
    with pytest.raises(SpecError, match="sharing one"):
        batch_engine.run_trials(
            [_spec(0), _spec(1, fault=FaultSpec("random_node", {"p": 0.5}))]
        )


def test_run_trials_rejects_unsupported_scenarios():
    bad = _spec(analysis=AnalysisSpec(mode="node", pruner="prune"))
    with pytest.raises(SpecError, match="not batchable"):
        batch_engine.run_trials([bad, bad])


# --------------------------------------------------------------------- #
# Session wiring
# --------------------------------------------------------------------- #


def test_session_run_trials_batched_counts_hits(tmp_path):
    specs = [_spec(seed) for seed in range(4)]
    session = Session(store=tmp_path / "store")
    first = session.run_trials_batched(specs)
    assert (session.hits, session.misses) == (0, 4)
    second = session.run_trials_batched(specs)
    assert (session.hits, session.misses) == (4, 4)
    assert [r.fingerprint() for r in first] == [r.fingerprint() for r in second]


def test_run_sweep_falls_back_to_scalar_for_unbatchable_points():
    """A pruning sweep is unbatchable: run_sweep keeps it scalar."""
    sweep = SweepSpec(
        base=ScenarioSpec(
            graph=TORUS,
            fault=FaultSpec("random_node", {"p": 0.2}),
            analysis=AnalysisSpec(mode="node", pruner="prune", epsilon=0.5,
                                  measure_expansion=False),
        ),
        trials=2,
        seed=5,
        metrics=("surviving_fraction",),
    )
    result = run_sweep(sweep, Session())
    assert result.fingerprint() == scalar_sweep(sweep).fingerprint()


def test_run_sweep_batches_singletons_only_when_forced(monkeypatch):
    """A lone 1-trial point stays on the scalar path; a stack of 2 or more
    trials — across points or within one — is one run_points_batched
    call.  Neither path is observable in the results, not even for a
    forced singleton batch."""
    calls = []
    real = Session.run_points_batched

    def counting(self, groups):
        calls.append([len(g) for g in groups])
        return real(self, groups)

    monkeypatch.setattr(Session, "run_points_batched", counting)
    for values, trials, stacked in [
        ((0.1,), 1, []),
        ((0.1, 0.6), 1, [[1, 1]]),
        ((0.1,), 2, [[2]]),
    ]:
        sweep = SweepSpec(
            base=_spec(seed=None).with_seed(None),
            axes=(Axis("fault.params.p", values),),
            trials=trials,
            seed=3,
            metrics=("gamma",),
        )
        calls.clear()
        result = run_sweep(sweep, Session())
        assert calls == stacked
        assert result.fingerprint() == scalar_sweep(sweep).fingerprint()
    # a forced singleton batch matches the scalar engine too
    spec = sweep.trial_spec(sweep.points()[0], 0)
    ((forced,),) = Session().run_points_batched([[spec]])
    assert forced.fingerprint() == Session().run(spec).fingerprint()

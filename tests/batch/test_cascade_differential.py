"""Cascade differential wall: batched rounds kernel vs the scalar loop.

:func:`repro.batch.rounds.cascade_rounds` advances T cascades in lockstep
with one padded ``np.add.reduceat`` per round; the scalar reference
:func:`repro.faults.cascade.cascade_fixpoint` runs one cascade with the
identical per-round formulas over the identical CSR segment order.  The
contract is *bit*-identity — same failed masks, same round counts, same
downstream records and fingerprints — on every input.  Hypothesis
generates the wall: arbitrary graphs (including the new
small-world/geographic families), arbitrary seed sets, margins from 0 to
far above any reachable load.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from property.strategies import (  # tests/property/strategies.py
    geographic_graphs,
    graphs,
    small_world_graphs,
)

from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.batch.engine import supports
from repro.batch.faults import MASK_SAMPLERS, batched_fault_masks
from repro.batch.rounds import cascade_rounds
from repro.faults.cascade import cascade_fixpoint, load_cascade

pytestmark = [pytest.mark.differential, pytest.mark.scenarios]

any_graphs = st.one_of(
    graphs(min_nodes=2, max_nodes=14, max_extra_edges=20),
    small_world_graphs(),
    geographic_graphs(),
)

alphas = st.sampled_from([0.0, 0.05, 0.2, 0.25, 0.5, 1.0, 10.0])


def payload(r):  # timings are wall-clock, everything else is content
    return {k: v for k, v in r.to_dict().items() if k != "timings"}


# --------------------------------------------------------------------- #
# kernel level: cascade_rounds row-for-row == cascade_fixpoint
# --------------------------------------------------------------------- #


@given(
    g=any_graphs,
    alpha=alphas,
    seed=st.integers(0, 2**31 - 1),
    trials=st.integers(1, 5),
)
@settings(max_examples=120, deadline=None)
def test_batched_rounds_bit_identical_to_scalar(g, alpha, seed, trials):
    rng = np.random.default_rng(seed)
    seed_masks = rng.random((trials, g.n)) < 0.2
    final, rounds = cascade_rounds(g, seed_masks, alpha)
    assert final.shape == (trials, g.n) and final.dtype == np.bool_
    for t in range(trials):
        ref_mask, ref_rounds = cascade_fixpoint(g, seed_masks[t], alpha)
        assert np.array_equal(final[t], ref_mask)
        assert int(rounds[t]) == ref_rounds


# --------------------------------------------------------------------- #
# sampler level: the registered mask sampler replays the scalar model RNG
# --------------------------------------------------------------------- #


@given(
    g=any_graphs,
    alpha=alphas,
    n_seeds=st.integers(1, 3),
    seed0=st.integers(0, 2**31 - 8),
    trials=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_mask_sampler_matches_scalar_model(g, alpha, n_seeds, seed0, trials):
    n_seeds = min(n_seeds, max(g.n, 1))
    seeds = [seed0 + t for t in range(trials)]
    params = {"alpha": alpha, "n_seeds": n_seeds}
    assert "cascade" in MASK_SAMPLERS
    masks, kind = batched_fault_masks(g, "cascade", params, seeds)
    assert masks.shape == (trials, g.n)
    for t, s in enumerate(seeds):
        sc = load_cascade(g, alpha=alpha, n_seeds=n_seeds, seed=s)
        scalar_mask = np.zeros(g.n, dtype=bool)
        scalar_mask[sc.faulty_nodes] = True
        assert np.array_equal(masks[t], scalar_mask)
        assert sc.kind == kind


# --------------------------------------------------------------------- #
# pipeline level: identical records + fingerprints
# --------------------------------------------------------------------- #

CASCADE_SPEC = ScenarioSpec(
    graph=GraphSpec("torus", {"sides": 6, "d": 2}),
    fault=FaultSpec("cascade", {"alpha": 0.2, "n_seeds": 2}),
    analysis=AnalysisSpec(mode="node", pruner=None, measure_expansion=False),
)


def test_engine_supports_cascade_specs():
    assert supports(CASCADE_SPEC.with_seed(0))


@pytest.mark.parametrize("gspec", [
    GraphSpec("torus", {"sides": 6, "d": 2}),
    GraphSpec("watts_strogatz", {"n": 30, "k": 4, "beta": 0.2, "seed": 5}),
    GraphSpec("geographic", {"n": 30, "q": 0.9, "scale": 0.3, "seed": 5}),
])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 5.0])
def test_batched_pipeline_matches_scalar(gspec, alpha):
    specs = [
        ScenarioSpec(
            graph=gspec,
            fault=FaultSpec("cascade", {"alpha": alpha, "n_seeds": 1}),
            analysis=AnalysisSpec(
                mode="node", pruner=None, measure_expansion=False
            ),
            seed=s,
        )
        for s in range(5)
    ]
    scalar = [Session().run(spec) for spec in specs]
    batched = Session().run_trials_batched(specs)
    assert [payload(r) for r in batched] == [payload(r) for r in scalar]
    assert [r.fingerprint() for r in batched] == [r.fingerprint() for r in scalar]


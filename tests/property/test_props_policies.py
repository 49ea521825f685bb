"""Property-based tests: SamplingPolicy allocation laws across all kinds.

Every allocator must (a) only ever request positive trial counts, (b)
respect the per-point cap (``fixed``/``ci_width``/``transition``) and
the total budget (``budget``), and (c) be a pure
function of the (views, allocated) stream — replaying the same stream
through a fresh allocator reproduces the identical request sequence,
which is the property distributed fingerprint identity rests on.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.sweeps import PointView, SamplingPolicy

_POLICIES = [
    SamplingPolicy(),
    SamplingPolicy(kind="ci_width", target=0.05, min_trials=2, chunk=3),
    SamplingPolicy(kind="budget", budget=30, min_trials=2, chunk=4),
    SamplingPolicy(kind="budget", budget=30, target=0.02, min_trials=3),
    SamplingPolicy(kind="transition", target=0.05, min_trials=2, chunk=4),
    SamplingPolicy(kind="transition", target=0.05, min_trials=2, budget=40),
]


@st.composite
def observation_streams(draw):
    """A grid size, per-point cap, and a scripted per-round view stream.

    Views are scripted rather than derived from real trials so hypothesis
    can explore degenerate shapes (all-NaN points, zero halfwidths, ties)
    that real metrics rarely produce.
    """
    n_points = draw(st.integers(1, 6))
    max_trials = draw(st.integers(1, 25))
    n_rounds = draw(st.integers(1, 8))
    rounds = []
    for _ in range(n_rounds):
        views = []
        for _ in range(n_points):
            dead = draw(st.booleans())
            if dead:
                views.append(PointView(math.inf, math.nan, 0))
            else:
                views.append(
                    PointView(
                        halfwidth=draw(
                            st.one_of(
                                st.just(math.inf),
                                st.floats(0.0, 2.0, allow_nan=False),
                            )
                        ),
                        mean=draw(st.floats(0.0, 1.0, allow_nan=False)),
                        n_finite=draw(st.integers(1, 50)),
                    )
                )
        rounds.append(views)
    return n_points, max_trials, rounds


def _drive(policy, n_points, max_trials, rounds):
    """Run one allocator over the scripted stream; return the request log."""
    allocator = policy.allocator(())
    allocated = [0] * n_points
    log = []
    for views in rounds:
        requests = allocator.next_requests(views, list(allocated), max_trials)
        log.append(list(requests))
        if not requests:
            break
        for i, n in requests:
            allocated[i] += n
    return log, allocated


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_POLICIES), observation_streams())
def test_requests_positive_and_in_range(policy, stream):
    n_points, max_trials, rounds = stream
    log, _ = _drive(policy, n_points, max_trials, rounds)
    for requests in log:
        for i, n in requests:
            assert 0 <= i < n_points
            assert n >= 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_POLICIES), observation_streams())
def test_per_point_cap_respected(policy, stream):
    n_points, max_trials, rounds = stream
    if policy.kind == "budget":
        return  # budget bounds the total, not per point
    _, allocated = _drive(policy, n_points, max_trials, rounds)
    assert all(a <= max_trials for a in allocated)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([p for p in _POLICIES if p.budget is not None]),
    observation_streams(),
)
def test_total_budget_respected(policy, stream):
    n_points, max_trials, rounds = stream
    _, allocated = _drive(policy, n_points, max_trials, rounds)
    assert sum(allocated) <= policy.budget


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_POLICIES), observation_streams())
def test_replay_determinism(policy, stream):
    n_points, max_trials, rounds = stream
    first, _ = _drive(policy, n_points, max_trials, rounds)
    second, _ = _drive(policy, n_points, max_trials, rounds)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_POLICIES), observation_streams())
def test_no_request_for_capped_points(policy, stream):
    """Once a point reaches its cap it never receives more work."""
    n_points, max_trials, rounds = stream
    allocator = policy.allocator(())
    allocated = [0] * n_points
    cap = policy.budget if policy.kind == "budget" else max_trials
    for views in rounds:
        requests = allocator.next_requests(views, list(allocated), max_trials)
        if not requests:
            break
        for i, n in requests:
            if policy.kind != "budget":
                assert allocated[i] < max_trials
            allocated[i] += n
    assert (
        sum(allocated) <= cap * (1 if policy.kind == "budget" else n_points)
    )

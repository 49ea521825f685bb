"""Sweep layer: SweepSpec round-trips, deterministic expansion, trial-seed
derivation, adaptive sampling policies, resume/parallel fingerprints."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.sweeps import (
    METRICS,
    Axis,
    PointView,
    SamplingPolicy,
    SweepSpec,
    run_sweep,
)
from repro.errors import SpecError


def _base(p: float = 0.1, *, analysis: AnalysisSpec | None = None) -> ScenarioSpec:
    return ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 6, "d": 2}),
        fault=FaultSpec("random_node", {"p": p}),
        analysis=analysis
        if analysis is not None
        else AnalysisSpec(mode="node", pruner=None, measure_expansion=False),
        label="t",
    )


#: A pruning analysis: its trials run on the scalar engine through the
#: session's executor (measure-only trials are stacked in-process).
_PRUNE = AnalysisSpec(mode="node", pruner="prune", measure_expansion=False)


def _sweep(**kwargs) -> SweepSpec:
    defaults = dict(
        base=_base(),
        axes=(Axis("fault.params.p", (0.1, 0.4)),),
        trials=3,
        seed=5,
        metrics=("gamma",),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# ------------------------------------------------------------------ #
# Round-trips (incl. property tests)
# ------------------------------------------------------------------ #

json_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**50), max_value=2**50),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)


#: Value strategies compatible with each path's spec-level validation
#: (expansion runs ScenarioSpec.from_dict on every grid point).
_AXIS_VALUE_STRATEGIES = {
    "fault.params.p": json_scalars,
    "fault.params.extra": json_scalars,
    "graph.params.sides": json_scalars,
    "graph.params.d": json_scalars,
    "analysis.exact_threshold": st.integers(min_value=0, max_value=30),
    "analysis.epsilon": st.floats(min_value=0.01, max_value=1.0),
}


@st.composite
def sweep_specs(draw):
    n_axes = draw(st.integers(min_value=0, max_value=3))
    paths = draw(
        st.lists(
            st.sampled_from(sorted(_AXIS_VALUE_STRATEGIES)),
            min_size=n_axes,
            max_size=n_axes,
            unique=True,
        )
    )
    axes = tuple(
        Axis(
            path,
            tuple(
                draw(
                    st.lists(
                        _AXIS_VALUE_STRATEGIES[path], min_size=1, max_size=4
                    )
                )
            ),
        )
        for path in paths
    )
    policy = draw(
        st.sampled_from(
            [
                SamplingPolicy(),
                SamplingPolicy(kind="ci_width", target=0.05, min_trials=2, chunk=3),
                SamplingPolicy(kind="transition", target=0.05, min_trials=2),
                SamplingPolicy(
                    kind="transition", target=0.05, min_trials=2, budget=30
                ),
            ]
        )
    )
    return SweepSpec(
        base=_base(),
        axes=axes,
        trials=draw(st.integers(min_value=1, max_value=50)),
        seed=draw(st.integers(min_value=0, max_value=2**62)),
        seed_policy=draw(st.sampled_from(["scenario", "fault"])),
        metrics=tuple(
            draw(
                st.lists(
                    st.sampled_from(sorted(METRICS)), min_size=1, max_size=3,
                    unique=True,
                )
            )
        ),
        policy=policy,
        label=draw(st.text(max_size=8)),
    )


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(sweep_specs())
    def test_dict_round_trip(self, sweep):
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep

    @settings(max_examples=50, deadline=None)
    @given(sweep_specs())
    def test_json_round_trip(self, sweep):
        restored = SweepSpec.from_json(sweep.to_json())
        assert restored == sweep
        assert restored.hash() == sweep.hash()

    @settings(max_examples=30, deadline=None)
    @given(sweep_specs())
    def test_json_is_plain_data(self, sweep):
        payload = json.loads(sweep.to_json())
        assert isinstance(payload, dict)
        assert set(payload) == {
            "base", "axes", "trials", "seed", "seed_policy", "metrics",
            "policy", "label",
        }

    def test_axis_accepts_spec_objects(self):
        axis = Axis("graph", (GraphSpec("torus", {"sides": 4, "d": 2}),))
        assert axis.values[0] == {
            "generator": "torus", "params": {"sides": 4, "d": 2},
        }

    def test_rejects_unknown_keys(self):
        d = _sweep().to_dict()
        d["bogus"] = 1
        with pytest.raises(SpecError):
            SweepSpec.from_dict(d)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("trials",), None),
            (("trials",), [4]),
            (("trials",), 1e400),  # JSON's 1e400 parses to inf
            (("seed",), None),
            (("seed",), {"a": 1}),
            (("metrics",), 7),
            (("metrics",), None),
            (("metrics",), [["gamma"]]),
            (("axes",), 7),
            (("axes",), None),
            (("axes", 0, "values"), None),
            (("axes", 0, "values"), 7),
            (("base", "analysis", "exact_threshold"), None),
            (("base", "analysis", "epsilon"), [0.5]),
        ],
    )
    def test_wrong_typed_fields_raise_spec_error(self, path, value):
        """Regression: these fields went to int()/float()/tuple() raw, so a
        JSON null, list, dict or bare number escaped as a TypeError — an
        HTTP 500 from the service and a traceback from the CLI."""
        d = json.loads(_sweep().to_json())
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SpecError):
            SweepSpec.from_dict(d)

    def test_lenient_spellings_keep_loading_with_the_same_hash(self):
        """Only what used to raise is rejected: numeric strings and
        integral floats still load, to the same content hash."""
        sweep = _sweep()
        d = json.loads(sweep.to_json())
        d["trials"] = "3"
        d["seed"] = 5.0
        d["base"]["analysis"]["exact_threshold"] = "14"
        restored = SweepSpec.from_dict(d)
        assert restored == sweep
        assert restored.hash() == sweep.hash()


# ------------------------------------------------------------------ #
# Expansion
# ------------------------------------------------------------------ #


class TestExpansion:
    def test_row_major_product_order(self):
        sweep = _sweep(
            axes=(
                Axis("fault.params.p", (0.1, 0.2)),
                Axis("analysis.exact_threshold", (10, 12, 14)),
            )
        )
        coords = [p.coord_dict() for p in sweep.points()]
        expected = [
            {"fault.params.p": p, "analysis.exact_threshold": t}
            for p, t in itertools.product((0.1, 0.2), (10, 12, 14))
        ]
        assert coords == expected
        assert sweep.n_points == 6

    @settings(max_examples=30, deadline=None)
    @given(sweep_specs())
    def test_expansion_is_deterministic(self, sweep):
        a = [(p.index, p.coords, p.spec) for p in sweep.points()]
        b = [(p.index, p.coords, p.spec) for p in sweep.points()]
        assert a == b
        # an equal spec reconstructed from JSON expands identically
        clone = SweepSpec.from_json(sweep.to_json())
        c = [(p.index, p.coords, p.spec) for p in clone.points()]
        assert a == c

    def test_axisless_sweep_is_one_point(self):
        sweep = _sweep(axes=())
        points = sweep.points()
        assert len(points) == 1
        assert points[0].coords == ()

    def test_whole_subtree_axis(self):
        graphs = (
            GraphSpec("torus", {"sides": 4, "d": 2}),
            GraphSpec("hypercube", {"d": 4}),
        )
        sweep = _sweep(axes=(Axis("graph", graphs),))
        specs = [p.spec.graph for p in sweep.points()]
        assert specs == list(graphs)

    def test_point_specs_have_no_seed(self):
        for point in _sweep().points():
            assert point.spec.seed is None

    def test_expand_yields_per_trial_units(self):
        sweep = _sweep(trials=2)
        units = list(sweep.expand())
        assert len(units) == sweep.n_points * 2
        assert [(i, t) for i, t, _ in units] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]
        seeds = [spec.seed for _, _, spec in units]
        assert len(set(seeds)) == len(seeds)  # all distinct

    def test_base_with_seed_rejected(self):
        with pytest.raises(SpecError):
            _sweep(base=_base().with_seed(3))

    def test_bad_axis_root_rejected(self):
        with pytest.raises(SpecError):
            Axis("seed", (1, 2))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(SpecError):
            _sweep(
                axes=(
                    Axis("fault.params.p", (0.1,)),
                    Axis("fault.params.p", (0.2,)),
                )
            )

    def test_unknown_metric_rejected(self):
        with pytest.raises(SpecError):
            _sweep(metrics=("nope",))

    def test_repeated_metric_rejected(self):
        """Regression: ("gamma", "gamma") folded every trial into the same
        aggregate twice, doubling n and narrowing the CI the adaptive
        policies stop on."""
        with pytest.raises(SpecError, match="repeated"):
            _sweep(metrics=("gamma", "gamma"))
        d = json.loads(_sweep().to_json())
        d["metrics"] = ["gamma", "surviving_fraction", "gamma"]
        with pytest.raises(SpecError, match="repeated"):
            SweepSpec.from_dict(d)

    def test_bool_trials_and_seed_rejected(self):
        """bool passes isinstance(..., int); trials=True used to slip
        through as trials=1 (regression)."""
        with pytest.raises(SpecError):
            _sweep(trials=True)
        with pytest.raises(SpecError):
            _sweep(seed=False)


# ------------------------------------------------------------------ #
# Trial-seed derivation
# ------------------------------------------------------------------ #


class TestTrialSeeds:
    def test_stable_across_reconstruction(self):
        a = _sweep()
        b = SweepSpec.from_json(a.to_json())
        pa, pb = a.points(), b.points()
        for i in range(len(pa)):
            for t in range(3):
                assert a.trial_seed(pa[i], t) == b.trial_seed(pb[i], t)

    def test_distinct_across_trials_and_points(self):
        sweep = _sweep()
        points = sweep.points()
        seeds = {
            sweep.trial_seed(p, t) for p in points for t in range(10)
        }
        assert len(seeds) == len(points) * 10

    def test_sweep_seed_changes_streams(self):
        a, b = _sweep(seed=1), _sweep(seed=2)
        assert a.trial_seed(a.points()[0], 0) != b.trial_seed(b.points()[0], 0)

    def test_duplicate_coordinate_points_are_independent(self):
        """Clamped axis levels may collide; the replicas must not share
        RNG streams (their CIs are reported as independent)."""
        sweep = _sweep(axes=(Axis("fault.params.p", (0.3, 0.3)),))
        p0, p1 = sweep.points()
        assert p0.spec.graph == p1.spec.graph  # identical coordinates
        assert sweep.trial_seed(p0, 0) != sweep.trial_seed(p1, 0)

    def test_fault_policy_ignores_analysis(self):
        """Ablation contract: identical fault draws across analysis arms."""
        arm1 = _sweep(
            seed_policy="fault",
            base=_base(analysis=AnalysisSpec(mode="node", pruner="prune")),
        )
        arm2 = _sweep(
            seed_policy="fault",
            base=_base(
                analysis=AnalysisSpec(
                    mode="node", pruner="prune", finder="sweep",
                    finder_params={"refine": False},
                )
            ),
        )
        p1, p2 = arm1.points(), arm2.points()
        for i in range(len(p1)):
            assert arm1.trial_seed(p1[i], 0) == arm2.trial_seed(p2[i], 0)

    def test_scenario_policy_separates_analysis(self):
        arm1 = _sweep(base=_base(analysis=AnalysisSpec(mode="node", pruner="prune")))
        arm2 = _sweep(base=_base(analysis=AnalysisSpec(mode="node", pruner=None)))
        assert arm1.trial_seed(arm1.points()[0], 0) != arm2.trial_seed(
            arm2.points()[0], 0
        )


# ------------------------------------------------------------------ #
# Policies
# ------------------------------------------------------------------ #


def _views(halfwidths, n_finite=None):
    """Point snapshots with the given CI half-widths; every point has a
    finite observation unless ``n_finite`` says otherwise."""
    if n_finite is None:
        n_finite = [1] * len(halfwidths)
    return [PointView(h, math.nan, n) for h, n in zip(halfwidths, n_finite)]


class TestSamplingPolicy:
    def test_fixed_allocates_once(self):
        alloc = SamplingPolicy().allocator()
        first = alloc.next_requests(_views([math.inf, math.inf]), [0, 0], 5)
        assert first == [(0, 5), (1, 5)]
        assert alloc.next_requests(_views([0.1, 0.1]), [5, 5], 5) == []

    def test_ci_width_stops_tight_points(self):
        policy = SamplingPolicy(kind="ci_width", target=0.05, min_trials=2, chunk=3)
        alloc = policy.allocator()
        assert alloc.next_requests(_views([math.inf, math.inf]), [0, 0], 10) == [
            (0, 2), (1, 2),
        ]
        # point 0 tight, point 1 noisy
        assert alloc.next_requests(_views([0.01, 0.5]), [2, 2], 10) == [(1, 3)]
        # cap respected
        assert alloc.next_requests(_views([0.01, 0.5]), [2, 9], 10) == [(1, 1)]
        assert alloc.next_requests(_views([0.01, 0.5]), [2, 10], 10) == []

    def test_budget_never_exceeded(self):
        alloc = SamplingPolicy(
            kind="transition", target=0.05, budget=5, min_trials=3
        ).allocator()
        first = alloc.next_requests(_views([math.inf] * 3), [0, 0, 0], 99)
        assert sum(n for _, n in first) == 5
        # budget spent: no further round, however wide the intervals
        assert alloc.next_requests(_views([0.5, 0.5, 0.5]), [3, 2, 0], 99) == []

    def test_validation(self):
        with pytest.raises(SpecError):
            SamplingPolicy(kind="nope")
        with pytest.raises(SpecError):
            SamplingPolicy(kind="ci_width")  # no target
        with pytest.raises(SpecError):
            SamplingPolicy(target=-1.0)
        with pytest.raises(SpecError):
            SamplingPolicy(kind="transition")  # no target
        with pytest.raises(SpecError):
            SamplingPolicy(chunk=True)  # bools are not trial counts
        with pytest.raises(SpecError):
            SamplingPolicy(kind="transition", target=0.05, budget=10.5)
        with pytest.raises(SpecError):
            SamplingPolicy(kind="transition", target=0.05, budget=0)

    def test_cluster_kind_removed(self):
        with pytest.raises(SpecError) as err:
            SamplingPolicy(kind="cluster", target=0.05)
        assert str(err.value) == (
            "policy kind must be one of ('fixed', 'ci_width', 'transition'), "
            "got 'cluster'"
        )

    def test_budget_kind_removed(self):
        with pytest.raises(SpecError) as err:
            SamplingPolicy(kind="budget", budget=10)
        assert str(err.value) == (
            "policy kind must be one of ('fixed', 'ci_width', 'transition'), "
            "got 'budget'"
        )

    # -- eq/hash contract (regression) --------------------------------- #

    def test_hash_equal_across_numeric_spellings(self):
        """int/float spellings of the same policy must be equal AND hash
        equal — JSON clients send either, and scheduler dedup keys on the
        content hash (pre-fix: eq held, hashes differed)."""
        a = SamplingPolicy(
            kind="transition", target=0.05, budget=100, min_trials=2
        )
        b = SamplingPolicy(
            kind="transition", target=0.05, budget=100.0, min_trials=2
        )
        assert a == b
        assert hash(a) == hash(b)
        c = SamplingPolicy(kind="ci_width", target=1, min_trials=2)
        d = SamplingPolicy(kind="ci_width", target=1.0, min_trials=2)
        assert c == d
        assert hash(c) == hash(d)

    def test_sweep_hash_stable_across_json_spellings(self):
        """A sweep round-tripped through JSON with int-vs-float policy
        fields keeps one content hash (what store reuse keys on)."""
        sweep = _sweep(
            policy=SamplingPolicy(
                kind="transition", target=0.05, budget=100, min_trials=2
            )
        )
        payload = json.loads(sweep.to_json())
        payload["policy"]["budget"] = 100.0
        restored = SweepSpec.from_json(json.dumps(payload))
        assert restored == sweep
        assert restored.hash() == sweep.hash()
        assert hash(restored.policy) == hash(sweep.policy)

    # -- NaN starvation (regression) ------------------------------------ #

    def test_budget_excludes_starved_points(self):
        """A point with min_trials spent and zero finite observations has
        halfwidth inf forever; it must not win every pick and starve the
        rest of the grid out of the budget."""
        policy = SamplingPolicy(
            kind="transition", target=0.05, budget=20, min_trials=2, chunk=4
        )
        alloc = policy.allocator()
        # point 0: 2 trials, no finite observations -> starved
        starved = [PointView(math.inf, math.nan, 0), PointView(0.5, 0.4, 2)]
        assert alloc.next_requests(starved, [2, 2], 99) == [(1, 4)]
        # all points starved: stop instead of burning budget forever
        dead = [PointView(math.inf, math.nan, 0)] * 2
        assert alloc.next_requests(dead, [2, 2], 99) == []
        # a point with finite observations but no interval yet is not
        # starved: its infinite half-width still wins the pick
        fresh = [PointView(math.inf, 0.9, 1), PointView(0.5, 0.4, 2)]
        assert alloc.next_requests(fresh, [2, 2], 99) == [(0, 4)]

    # -- stateful kinds -------------------------------------------------- #

    def test_transition_allocator_targets_steep_region(self):
        policy = SamplingPolicy(
            kind="transition", target=0.05, min_trials=2, chunk=4
        )
        alloc = policy.allocator(())
        # equal widths everywhere; the curve only moves between points 1-3,
        # so the steep-point sample floor routes the chunk into the band
        views = [
            PointView(0.1, 1.00, 2),
            PointView(0.1, 0.98, 2),
            PointView(0.1, 0.50, 2),
            PointView(0.1, 0.02, 2),
            PointView(0.1, 0.00, 2),
        ]
        requests = alloc.next_requests(views, [2] * 5, 20)
        assert len(requests) == 1
        assert requests[0][0] in (1, 2, 3)
        # once the band is sampled past the floor and tight relative to the
        # per-grid-step curve movement, the sweep stops
        views = [
            PointView(0.01, 1.00, 8),
            PointView(0.05, 0.98, 8),
            PointView(0.05, 0.50, 8),
            PointView(0.05, 0.02, 8),
            PointView(0.01, 0.00, 8),
        ]
        assert alloc.next_requests(views, [8] * 5, 20) == []


# ------------------------------------------------------------------ #
# Execution: streaming aggregation, determinism, resume
# ------------------------------------------------------------------ #


class TestRunSweep:
    def test_fixed_totals_and_stats(self):
        result = run_sweep(_sweep(trials=4), Session())
        assert result.total_trials == 8
        assert result.rounds == 1
        for point in result.points:
            gamma = point.stats["gamma"]
            assert gamma.n == 4
            assert 0.0 <= gamma.mean <= 1.0
            assert gamma.ci_lo <= gamma.mean <= gamma.ci_hi
            assert gamma.minimum <= gamma.mean <= gamma.maximum

    def test_workers_serial_vs_pool_fingerprints_identical(self, pool_starts):
        # Pruned trials take the scalar path, so the pool really runs them.
        sweep = _sweep(base=_base(analysis=_PRUNE), trials=4)
        serial = run_sweep(sweep, Session(workers=1))
        assert pool_starts == []
        pooled = run_sweep(sweep, Session(workers=2))
        assert pool_starts == [2]
        assert serial.fingerprint() == pooled.fingerprint()
        for a, b in zip(serial.points, pooled.points):
            assert a.trial_fingerprints == b.trial_fingerprints
            assert a.stats["gamma"].mean == b.stats["gamma"].mean

    def test_interrupted_resume_identical_fingerprint(self, tmp_path):
        sweep = _sweep(trials=4)
        fresh = run_sweep(sweep, Session())  # storeless reference

        class Stop(Exception):
            pass

        count = 0

        def bomb(i, t, result):
            nonlocal count
            count += 1
            if count == 3:
                raise Stop

        store = tmp_path / "store"
        with pytest.raises(Stop):
            run_sweep(sweep, Session(store), on_result=bomb)
        # everything yielded before the interruption landed on disk
        interrupted = Session(store)
        assert len(interrupted.store) >= 3

        resumed = run_sweep(sweep, interrupted)
        assert interrupted.hits >= 3  # served from the store
        assert resumed.fingerprint() == fresh.fingerprint()
        assert [p.trial_fingerprints for p in resumed.points] == [
            p.trial_fingerprints for p in fresh.points
        ]

    def test_ci_width_uses_fewer_trials_than_fixed(self):
        axes = (Axis("fault.params.p", (0.05, 0.5)),)
        fixed = run_sweep(
            _sweep(axes=axes, trials=20), Session()
        )
        adaptive = run_sweep(
            _sweep(
                axes=axes,
                trials=20,
                policy=SamplingPolicy(
                    kind="ci_width", target=0.04, min_trials=4, chunk=4
                ),
            ),
            Session(),
        )
        assert adaptive.total_trials < fixed.total_trials
        # adaptive point estimates agree with fixed within the joint CI
        for a, f in zip(adaptive.points, fixed.points):
            sa, sf = a.stats["gamma"], f.stats["gamma"]
            assert abs(sa.mean - sf.mean) <= sa.halfwidth + sf.halfwidth + 1e-9

    def test_budget_policy_respects_total(self):
        result = run_sweep(
            _sweep(
                trials=99,  # the per-point cap never binds
                policy=SamplingPolicy(
                    kind="transition", target=0.001, budget=12, min_trials=3
                ),
            ),
            Session(),
        )
        assert result.total_trials == 12

    def test_skipped_metric_values_counted(self):
        # expansion_retention is None for measure-only analyses
        result = run_sweep(
            _sweep(trials=2, metrics=("gamma", "expansion_retention")),
            Session(),
        )
        for point in result.points:
            assert point.stats["expansion_retention"].n == 0
            assert point.stats["expansion_retention"].n_skipped == 2

    def test_rows_render(self):
        from repro.report.tables import format_row_dicts

        result = run_sweep(_sweep(trials=2), Session())
        out = format_row_dicts(result.rows())
        assert "gamma_mean" in out
        assert "ci95" in out

    def test_result_to_dict_is_json(self):
        result = run_sweep(_sweep(trials=2), Session())
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["total_trials"] == 4
        assert payload["sweep"]["trials"] == 2

    def test_budget_sweep_not_starved_by_all_nan_point(self):
        """Regression: a point whose metric never yields a finite value
        (expansion_retention under measure_expansion=False) must not absorb
        every remaining budget chunk while finite points get nothing."""
        sweep = _sweep(
            axes=(Axis("analysis.measure_expansion", (False, True)),),
            base=_base(
                analysis=AnalysisSpec(
                    mode="node", pruner=None, measure_expansion=True
                )
            ),
            trials=99,
            metrics=("expansion_retention",),
            policy=SamplingPolicy(
                kind="transition", target=0.01, budget=16, min_trials=3
            ),
        )
        result = run_sweep(sweep, Session())
        nan_point, finite_point = result.points
        assert nan_point.stats["expansion_retention"].n == 0  # truly all-NaN
        assert nan_point.n_trials == 3  # bootstrap only, then starved out
        assert finite_point.n_trials == 13  # the rest of the budget

    @pytest.mark.parametrize("kind", ["transition"])
    def test_adaptive_kind_fingerprints_identical_across_workers(
        self, kind, pool_starts
    ):
        sweep = _sweep(
            base=_base(analysis=_PRUNE),
            axes=(Axis("fault.params.p", (0.05, 0.3, 0.6)),),
            trials=8,
            policy=SamplingPolicy(kind=kind, target=0.04, min_trials=2, chunk=2),
        )
        serial = run_sweep(sweep, Session(workers=1))
        pooled = run_sweep(sweep, Session(workers=2))
        assert pool_starts  # the bootstrap round alone has 6 trials
        assert serial.fingerprint() == pooled.fingerprint()
        assert [p.n_trials for p in serial.points] == [
            p.n_trials for p in pooled.points
        ]

    @pytest.mark.parametrize("kind", ["transition"])
    def test_adaptive_kind_resume_identical_fingerprint(self, tmp_path, kind):
        sweep = _sweep(
            axes=(Axis("fault.params.p", (0.05, 0.3, 0.6)),),
            trials=8,
            policy=SamplingPolicy(kind=kind, target=0.04, min_trials=2, chunk=2),
        )
        fresh = run_sweep(sweep, Session())

        class Stop(Exception):
            pass

        count = 0

        def bomb(i, t, result):
            nonlocal count
            count += 1
            if count == 4:
                raise Stop

        store = tmp_path / "store"
        with pytest.raises(Stop):
            run_sweep(sweep, Session(store), on_result=bomb)
        resumed = run_sweep(sweep, Session(store))
        assert resumed.fingerprint() == fresh.fingerprint()
        assert [p.trial_fingerprints for p in resumed.points] == [
            p.trial_fingerprints for p in fresh.points
        ]

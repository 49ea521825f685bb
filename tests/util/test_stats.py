"""Online aggregators: Welford vs numpy, CIs, quantiles, curve fits."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.util.stats import (
    OnlineStats,
    fit_isotonic,
    fit_logistic,
    logistic_slope,
    logistic_value,
    normal_ppf,
    t_value,
    wilson_interval,
    z_value,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestNormalPpf:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.5, 0.0),
            (0.975, 1.959963984540054),
            (0.995, 2.5758293035489004),
            (0.841344746068543, 1.0),
            (0.001, -3.090232306167813),
        ],
    )
    def test_known_values(self, p, expected):
        assert normal_ppf(p) == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3):
            assert normal_ppf(p) == pytest.approx(-normal_ppf(1 - p), abs=1e-12)

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(InvalidParameterError):
                normal_ppf(p)

    def test_z_value(self):
        assert z_value(0.95) == pytest.approx(1.959963984540054, abs=1e-9)
        with pytest.raises(InvalidParameterError):
            z_value(1.0)


class TestTValue:
    @pytest.mark.parametrize(
        "confidence,df,expected",
        [(0.95, 1, 12.7062), (0.95, 5, 2.5706), (0.90, 10, 1.8125), (0.99, 30, 2.7500)],
    )
    def test_table_values(self, confidence, df, expected):
        assert t_value(confidence, df) == pytest.approx(expected, abs=1e-4)

    @pytest.mark.parametrize("confidence,df", [(0.0, 3), (1.0, 3), (0.95, 0)])
    def test_rejects_bad_arguments(self, confidence, df):
        with pytest.raises(InvalidParameterError):
            t_value(confidence, df)


def test_import_repro_does_not_load_scipy_special():
    """``t_value`` imports scipy.special itself, so start-up does not pay
    for it."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    code = "import sys, repro; print('scipy.special' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


class TestOnlineStats:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_floats, min_size=2, max_size=40))
    def test_matches_numpy(self, xs):
        agg = OnlineStats()
        for x in xs:
            agg.push(x)
        assert agg.count == len(xs)
        assert agg.mean == pytest.approx(float(np.mean(xs)), rel=1e-9, abs=1e-7)
        assert agg.variance == pytest.approx(
            float(np.var(xs, ddof=1)), rel=1e-7, abs=1e-6
        )
        assert agg.minimum == min(xs)
        assert agg.maximum == max(xs)

    def test_empty(self):
        agg = OnlineStats()
        assert agg.count == 0
        assert agg.variance == 0.0
        assert agg.stderr == math.inf
        assert agg.halfwidth() == math.inf

    def test_halfwidth_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small, large = OnlineStats(), OnlineStats()
        xs = rng.normal(size=400)
        for x in xs[:20]:
            small.push(x)
        for x in xs:
            large.push(x)
        assert large.halfwidth(0.95) < small.halfwidth(0.95)


class TestIntervals:
    def test_interval_contains_truth(self):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(200):
            agg = OnlineStats()
            for x in rng.normal(loc=3.0, scale=1.0, size=40):
                agg.push(x)
            lo, hi = agg.interval(0.95)
            hits += lo <= 3.0 <= hi
        assert hits >= 180  # ~95% nominal coverage

    def test_interval_tiny_n(self):
        agg = OnlineStats()
        agg.push(1.0)
        assert agg.interval() == (-math.inf, math.inf)

    def test_wilson_basic(self):
        lo, hi = wilson_interval(8, 10)
        assert 0.0 < lo < 0.8 < hi < 1.0

    def test_wilson_never_degenerate_at_extremes(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi > 0.05
        lo, hi = wilson_interval(10, 10)
        assert hi == pytest.approx(1.0, abs=1e-12) and lo < 0.95

    def test_wilson_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_rejects_bad_successes(self):
        with pytest.raises(InvalidParameterError):
            wilson_interval(11, 10)

    def test_wilson_narrows_with_n(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1


class TestFitIsotonic:
    def test_already_monotone_is_identity(self):
        ys = [0.1, 0.4, 0.4, 0.9]
        assert fit_isotonic(ys) == ys

    def test_pools_violators(self):
        assert fit_isotonic([1.0, 3.0, 2.0, 4.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_decreasing_direction(self):
        out = fit_isotonic([0.9, 0.95, 0.5, 0.1], increasing=False)
        assert all(a >= b - 1e-12 for a, b in zip(out, out[1:]))

    def test_weights_pull_the_pool(self):
        # heavy first point dominates the pooled pair
        out = fit_isotonic([2.0, 0.0], weights=[3.0, 1.0])
        assert out[0] == out[1] == pytest.approx(1.5)

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidParameterError):
            fit_isotonic([1.0, 2.0], weights=[1.0])
        with pytest.raises(InvalidParameterError):
            fit_isotonic([1.0, 2.0], weights=[1.0, -1.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=20))
    def test_output_is_monotone_and_mean_preserving(self, ys):
        out = fit_isotonic(ys)
        assert all(a <= b + 1e-9 for a, b in zip(out, out[1:]))
        assert sum(out) == pytest.approx(sum(ys), abs=1e-6 * max(1, len(ys)))


class TestFitLogistic:
    def test_recovers_midpoint(self):
        truth = (0.0, 1.0, 0.5, 12.0)
        xs = [i / 10 for i in range(11)]
        ys = [logistic_value(truth, x) for x in xs]
        lo, hi, x0, k = fit_logistic(xs, ys)
        assert x0 == pytest.approx(0.5, abs=0.05)
        # asymptotes pin to the data extremes
        assert lo == pytest.approx(min(ys), abs=1e-9)
        assert hi == pytest.approx(max(ys), abs=1e-9)
        assert k > 0

    def test_deterministic(self):
        xs = [0.0, 0.25, 0.5, 0.75, 1.0]
        ys = [0.95, 0.9, 0.5, 0.12, 0.05]
        assert fit_logistic(xs, ys) == fit_logistic(xs, ys)

    def test_slope_peaks_at_midpoint(self):
        params = (0.0, 1.0, 0.4, 10.0)
        slopes = [abs(logistic_slope(params, x)) for x in (0.0, 0.4, 1.0)]
        assert slopes[1] > slopes[0] and slopes[1] > slopes[2]

    def test_value_overflow_safe(self):
        params = (0.0, 1.0, 0.0, 1e6)
        assert logistic_value(params, 1e6) == pytest.approx(0.0, abs=1e-12)
        assert logistic_value(params, -1e6) == pytest.approx(1.0, abs=1e-12)
        assert logistic_slope(params, 1e6) == pytest.approx(0.0, abs=1e-12)

"""Online (single-pass) statistics for streaming Monte-Carlo aggregation.

The sweep layer (:mod:`repro.api.sweeps`) consumes trial results one at a
time as :meth:`repro.api.session.Session.run_iter` streams them out of the
executor, so every estimator here is *online*: constant memory, one
``push`` per observation, queryable at any point mid-stream.

* :class:`OnlineStats` — Welford's algorithm for mean/variance (numerically
  stable single pass) with a normal-approximation confidence interval
  for the mean.
* :func:`wilson_interval` — the confidence interval for Bernoulli
  metrics.  The Wilson score interval stays honest at small ``n`` and
  near 0/1 rates, which is exactly where a sweep's adaptive allocator
  needs reliable widths.
* :func:`normal_ppf` / :func:`z_value` — the standard-normal quantile,
  from :class:`statistics.NormalDist`; :func:`t_value` — the Student-t
  quantile, from ``scipy.special.stdtrit``.

The aggregators are pure python + math: they run inside tight
result-consumer loops where a numpy round-trip per observation would
dominate.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import List, Optional, Tuple

from ..errors import InvalidParameterError

__all__ = [
    "OnlineStats",
    "normal_ppf",
    "z_value",
    "t_value",
    "wilson_interval",
    "fit_isotonic",
    "fit_logistic",
    "logistic_value",
    "logistic_slope",
]


# --------------------------------------------------------------------- #
# Normal and Student-t quantiles
# --------------------------------------------------------------------- #


def normal_ppf(p: float) -> float:
    """Inverse CDF of the standard normal distribution.

    >>> round(normal_ppf(0.975), 4)
    1.96
    >>> normal_ppf(0.5)
    0.0
    >>> round(normal_ppf(0.1), 4)
    -1.2816
    """
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(f"normal_ppf needs p in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def z_value(confidence: float) -> float:
    """Two-sided z-value for a confidence level (e.g. 0.95 → 1.9600).

    >>> round(z_value(0.95), 4)
    1.96
    >>> round(z_value(0.99), 4)
    2.5758
    """
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    return normal_ppf(0.5 + confidence / 2.0)


def t_value(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value (e.g. ``t_value(0.95, 2)`` ≈ 4.30).

    The honest small-sample replacement for :func:`z_value`: the report
    pipeline uses it for the CI half-widths of mean estimates with a
    handful of trials, where the normal approximation is anti-conservative
    (``t/z`` ≈ 2.2 at 3 observations).  Converges to :func:`z_value` as
    ``df`` grows.

    >>> round(t_value(0.95, 2), 3)
    4.303
    >>> round(t_value(0.95, 10), 3)
    2.228
    >>> abs(t_value(0.95, 10_000) - z_value(0.95)) < 1e-3
    True
    """
    if not 0.0 < confidence < 1.0:
        raise InvalidParameterError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    if df < 1:
        raise InvalidParameterError(f"df must be >= 1, got {df}")
    # imported here: ``import repro`` loads this module, and scipy.special
    # would add to every process's start-up time
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 + confidence / 2.0))


# --------------------------------------------------------------------- #
# Welford online mean / variance
# --------------------------------------------------------------------- #


class OnlineStats:
    """Single-pass mean/variance/extremes (Welford's algorithm).

    >>> stats = OnlineStats()
    >>> for x in (1.0, 2.0, 3.0, 4.0):
    ...     stats.push(x)
    >>> stats.count, stats.mean, round(stats.std, 4)
    (4, 2.5, 1.291)
    >>> lo, hi = stats.interval(0.95)
    >>> lo < stats.mean < hi
    True
    """

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def push(self, x: float) -> None:
        x = float(x)
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0.0 below two observations."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def stderr(self) -> float:
        """Standard error of the mean; ``inf`` below two observations."""
        if self.count < 2:
            return math.inf
        return self.std / math.sqrt(self.count)

    def interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation CI for the mean (``(-inf, inf)`` if n < 2)."""
        half = self.halfwidth(confidence)
        return self.mean - half, self.mean + half

    def halfwidth(self, confidence: float = 0.95) -> float:
        """CI half-width — the adaptive allocator's tightness measure."""
        if self.count < 2:
            return math.inf
        return z_value(confidence) * self.stderr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineStats(n={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )


def wilson_interval(
    successes: int, n: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a Bernoulli proportion.

    Unlike the Wald interval this never collapses to zero width at
    0/n or n/n successes, so adaptive allocation keeps sampling points
    whose rates merely *look* settled after a handful of trials.

    >>> lo, hi = wilson_interval(0, 3)      # 0/3 successes: still wide
    >>> (round(lo, 3), round(hi, 3))
    (0.0, 0.561)
    >>> lo, hi = wilson_interval(90, 100)
    >>> (round(lo, 3), round(hi, 3))
    (0.826, 0.945)
    """
    if n <= 0:
        return 0.0, 1.0
    if not 0 <= successes <= n:
        raise InvalidParameterError(
            f"successes must be in [0, {n}], got {successes}"
        )
    z = z_value(confidence)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


# --------------------------------------------------------------------- #
# Online curve fitting (the transition allocator's response models)
# --------------------------------------------------------------------- #


def fit_isotonic(
    ys: List[float],
    weights: Optional[List[float]] = None,
    *,
    increasing: bool = True,
) -> List[float]:
    """Weighted isotonic regression via pool-adjacent-violators (PAV).

    Returns the monotone sequence minimising the weighted squared error to
    ``ys`` — the standard nonparametric smoother for a response known to be
    monotone in the swept axis, like a disintegration curve γ(p).  Pure
    python, deterministic, O(n) per call.

    >>> fit_isotonic([1.0, 3.0, 2.0, 4.0])
    [1.0, 2.5, 2.5, 4.0]
    >>> fit_isotonic([1.0, 0.4, 0.6, 0.1], increasing=False)
    [1.0, 0.5, 0.5, 0.1]
    """
    n = len(ys)
    if n == 0:
        return []
    w = list(weights) if weights is not None else [1.0] * n
    if len(w) != n:
        raise InvalidParameterError(
            f"weights length {len(w)} != data length {n}"
        )
    if any(x <= 0 for x in w):
        raise InvalidParameterError("isotonic weights must be positive")
    seq = list(ys) if increasing else [-y for y in ys]
    # blocks of (weighted mean, total weight, member count)
    blocks: List[List[float]] = []
    for y, wt in zip(seq, w):
        blocks.append([float(y), float(wt), 1.0])
        while len(blocks) > 1 and blocks[-2][0] >= blocks[-1][0]:
            m2, w2, c2 = blocks.pop()
            m1, w1, c1 = blocks.pop()
            total = w1 + w2
            blocks.append([(m1 * w1 + m2 * w2) / total, total, c1 + c2])
    out: List[float] = []
    for mean, _, count in blocks:
        out.extend([mean] * int(count))
    return out if increasing else [-y for y in out]


def logistic_value(params: Tuple[float, float, float, float], x: float) -> float:
    """Evaluate the 4-parameter logistic ``lo + (hi-lo) / (1 + e^{k(x-x0)})``.

    With ``k > 0`` the curve *decreases* from ``hi`` to ``lo`` as ``x``
    grows — the natural orientation for a disintegration curve γ(p).
    """
    lo, hi, x0, k = params
    z = k * (x - x0)
    if z >= 0:
        e = math.exp(-z) if z < 700 else 0.0
        s = e / (1.0 + e)
    else:
        e = math.exp(z) if z > -700 else 0.0
        s = 1.0 / (1.0 + e)
    return lo + (hi - lo) * s


def logistic_slope(params: Tuple[float, float, float, float], x: float) -> float:
    """d/dx of :func:`logistic_value` at ``x`` (analytic, overflow-safe)."""
    lo, hi, x0, k = params
    z = abs(k * (x - x0))
    if z > 700:
        return 0.0
    e = math.exp(-z)
    s = e / (1.0 + e) ** 2
    return -(hi - lo) * k * s


def fit_logistic(
    xs: List[float],
    ys: List[float],
    weights: Optional[List[float]] = None,
) -> Tuple[float, float, float, float]:
    """Fit ``(lo, hi, x0, k)`` of :func:`logistic_value` to ``(xs, ys)``.

    Deterministic scipy-free least squares: asymptotes are pinned to the
    data extremes, then ``(x0, k)`` minimise the weighted SSE over a coarse
    grid refined by three shrinking passes — the same inputs always produce
    the same parameters, which is what lets adaptive allocators consume the
    fit without breaking replay determinism.  ``k`` is constrained positive
    (decreasing curve); pass ``-y`` values to fit an increasing response.

    >>> xs = [0.1 * i for i in range(11)]
    >>> truth = (0.0, 1.0, 0.5, 12.0)
    >>> fit = fit_logistic(xs, [logistic_value(truth, x) for x in xs])
    >>> abs(fit[2] - 0.5) < 0.05 and abs(fit[3] - 12.0) / 12.0 < 0.5
    True
    """
    n = len(xs)
    if n != len(ys):
        raise InvalidParameterError(
            f"xs length {n} != ys length {len(ys)}"
        )
    if n < 2:
        raise InvalidParameterError("fit_logistic needs at least two points")
    w = list(weights) if weights is not None else [1.0] * n
    if len(w) != n or any(x <= 0 for x in w):
        raise InvalidParameterError(
            "weights must match the data length and be positive"
        )
    lo, hi = min(ys), max(ys)
    x_lo, x_hi = min(xs), max(xs)
    span = max(x_hi - x_lo, 1e-12)

    def sse(x0: float, k: float) -> float:
        total = 0.0
        for x, y, wt in zip(xs, ys, w):
            d = logistic_value((lo, hi, x0, k), x) - y
            total += wt * d * d
        return total

    # Coarse grid: x0 across the observed range, k across 3 decades of
    # steepness relative to the axis span.
    best = (math.inf, x_lo + span / 2.0, 1.0 / span)
    k_grid = [10.0 ** e / span for e in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)]
    for i in range(17):
        x0 = x_lo + span * i / 16.0
        for k in k_grid:
            err = sse(x0, k)
            if err < best[0] - 1e-15:
                best = (err, x0, k)
    # Three shrinking local refinements around the incumbent.
    dx, fk = span / 16.0, 10.0 ** 0.5
    for _ in range(3):
        _, bx, bk = best
        for x0 in (bx - dx, bx - dx / 2, bx, bx + dx / 2, bx + dx):
            for k in (bk / fk, bk / math.sqrt(fk), bk, bk * math.sqrt(fk), bk * fk):
                err = sse(x0, k)
                if err < best[0] - 1e-15:
                    best = (err, x0, k)
        dx /= 4.0
        fk = math.sqrt(fk)
    return (lo, hi, best[1], best[2])

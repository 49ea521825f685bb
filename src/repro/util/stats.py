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
* :func:`normal_ppf` — inverse standard-normal CDF (Acklam's rational
  approximation, |relative error| < 1.2e-9) so confidence levels translate
  to z-values without a scipy dependency.

Everything is pure python + math: these run inside tight result-consumer
loops where a numpy round-trip per observation would dominate.
"""

from __future__ import annotations

import math
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
# Inverse normal CDF (no scipy)
# --------------------------------------------------------------------- #

# Acklam's coefficients for the rational approximations of Φ⁻¹.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_PPF_LOW, _PPF_HIGH = 0.02425, 1.0 - 0.02425


def normal_ppf(p: float) -> float:
    """Inverse CDF of the standard normal distribution.

    Acklam's rational approximation with one Halley refinement step; the
    result is accurate to full double precision for ``p`` in (0, 1).

    >>> round(normal_ppf(0.975), 4)
    1.96
    >>> normal_ppf(0.5)
    0.0
    >>> round(normal_ppf(0.1), 4)
    -1.2816
    """
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(f"normal_ppf needs p in (0, 1), got {p}")
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    if p < _PPF_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= _PPF_HIGH:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # One Halley step against the exact CDF (erfc is in libm).
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


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


# --------------------------------------------------------------------- #
# Student-t quantile (no scipy)
# --------------------------------------------------------------------- #


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom."""
    x = df / (df + t * t)
    p = 0.5 * _betainc(df / 2.0, 0.5, x)
    return 1.0 - p if t >= 0 else p


def t_value(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value (e.g. ``t_value(0.95, 2)`` ≈ 4.30).

    The honest small-sample replacement for :func:`z_value`: the report
    pipeline uses it for the CI half-widths of mean estimates with a
    handful of trials, where the normal approximation is anti-conservative
    (``t/z`` ≈ 2.2 at 3 observations).  Computed scipy-free by bisecting
    the t CDF (regularised incomplete beta via a Lentz continued
    fraction); converges to :func:`z_value` as ``df`` grows.

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
    target = 0.5 + confidence / 2.0
    lo, hi = 0.0, 2.0
    while _t_cdf(hi, df) < target:
        hi *= 2.0
        if hi > 1e9:  # pragma: no cover - unreachable for valid inputs
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _t_cdf(mid, df) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


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

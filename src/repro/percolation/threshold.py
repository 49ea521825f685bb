"""Critical-probability estimation by bisection on the γ curve.

The critical survival probability ``p*`` (paper §1.1) separates the regime
where ``γ`` stays bounded away from 0 from the regime where it vanishes.  On
finite graphs the transition is a smooth sigmoid, so we estimate the
*crossing point* of ``E[γ(q)]`` with a fixed level ``γ_target`` (default
0.2, safely inside the scaling window for the sizes used here) by bisection
with Monte-Carlo evaluations at each probe: one midpoint probe per round,
each probe a full :func:`~repro.percolation.sites.site_percolation` /
:func:`~repro.percolation.bonds.bond_percolation` call.

The estimator returns the final bracket, not a point — honest reporting of
Monte-Carlo precision — and the bench tables print the bracket midpoint with
the literature value side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from ..errors import InvalidParameterError
from ..graphs.graph import Graph
from ..util.rng import SeedLike, as_generator
from ..util.validation import check_fraction, check_positive_int
from .bonds import bond_percolation
from .sites import site_percolation

__all__ = ["ThresholdEstimate", "estimate_critical_probability"]

Mode = Literal["site", "bond"]

_MAX_PROBES = 30  # bisection on [0,1] converges long before this


@dataclass(frozen=True)
class ThresholdEstimate:
    """Bracketed estimate of the critical survival probability."""

    lo: float
    hi: float
    gamma_target: float
    mode: str
    n_probes: int

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def estimate_critical_probability(
    graph: Graph,
    *,
    mode: Mode = "site",
    gamma_target: float = 0.2,
    n_trials: int = 10,
    tol: float = 0.02,
    seed: SeedLike = None,
    q_lo: float = 0.0,
    q_hi: float = 1.0,
) -> ThresholdEstimate:
    """Bisect for the survival probability where ``E[γ]`` crosses the target.

    Parameters
    ----------
    graph:
        Host graph.
    mode:
        ``"site"`` (node survival — the paper's fault model) or ``"bond"``.
    gamma_target:
        The crossing level in ``(0, 1)``.
    n_trials:
        Monte-Carlo trials per probe.
    tol:
        Stop when the bracket is narrower than this.
    q_lo, q_hi:
        Initial bracket, ``0 ≤ q_lo < q_hi ≤ 1``; should satisfy
        γ(q_lo) < target ≤ γ(q_hi) — with the defaults this always holds
        for connected graphs since γ(1) = 1.

    Bisection stops after at most 30 probes.
    """
    gamma_target = check_fraction(gamma_target, "gamma_target")
    n_trials = check_positive_int(n_trials, "n_trials")
    lo, hi = float(q_lo), float(q_hi)
    if not 0.0 <= lo < hi <= 1.0:
        raise InvalidParameterError(
            f"need 0 <= q_lo < q_hi <= 1, got q_lo={q_lo}, q_hi={q_hi}"
        )
    rng = as_generator(seed)
    probes = 0

    def gamma(q: float) -> float:
        if mode == "site":
            return site_percolation(graph, q, n_trials=n_trials, seed=rng).gamma_mean
        return bond_percolation(graph, q, n_trials=n_trials, seed=rng).gamma_mean

    while hi - lo > tol and probes < _MAX_PROBES:
        mid = 0.5 * (lo + hi)
        g = gamma(mid)
        probes += 1
        if g >= gamma_target:
            hi = mid
        else:
            lo = mid
    return ThresholdEstimate(
        lo=lo, hi=hi, gamma_target=gamma_target, mode=mode, n_probes=probes
    )

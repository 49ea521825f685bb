"""Critical-probability estimation by bisection on the γ curve.

The critical survival probability ``p*`` (paper §1.1) separates the regime
where ``γ`` stays bounded away from 0 from the regime where it vanishes.  On
finite graphs the transition is a smooth sigmoid, so we estimate the
*crossing point* of ``E[γ(q)]`` with a fixed level ``γ_target`` (default
0.2, safely inside the scaling window for the sizes used here) by bisection
with Monte-Carlo evaluations at each probe.

Two probe schedules exist.  The default (``ladder=1``) is classical
bisection: one midpoint probe per round, each probe a full
:func:`~repro.percolation.sites.site_percolation` /
:func:`~repro.percolation.bonds.bond_percolation` call.  With
``ladder=k ≥ 2`` each round evaluates ``k`` evenly spaced interior probes
*in one stacked kernel call*, shrinking the bracket by ``(k+1)×`` per round
(``log2(k+1)`` bisection steps per call) instead of ``2×``.  The ladder
uses the standard monotone percolation coupling: one uniform draw per
(trial, site/bond) per round, thresholded at each probe ``q``, so the k
estimated γ values are monotone in ``q`` by construction and the crossing
probe is well defined within a round.

The estimator returns the final bracket, not a point — honest reporting of
Monte-Carlo precision — and the bench tables print the bracket midpoint with
the literature value side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal

import numpy as np

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


def _gamma_ladder(
    graph: Graph,
    qs: List[float],
    n_trials: int,
    rng,
    mode: str,
) -> np.ndarray:
    """Mean γ at every probe of one ladder round, in one stacked call.

    Monotone coupling: one uniform matrix is drawn for the round and
    thresholded at each probe ``q`` — a site (or bond) alive at ``q`` is
    alive at every larger ``q`` — so the returned means are monotone in
    ``q`` and one kernel call covers the whole ladder.
    """
    from ..batch.metrics import batched_gamma

    k = len(qs)
    n = graph.n
    if n == 0:
        return np.zeros(k, dtype=np.float64)
    if mode == "site":
        uniforms = rng.random((n_trials, n))
        alive = np.empty((k * n_trials, n), dtype=bool)
        for j, q in enumerate(qs):
            alive[j * n_trials: (j + 1) * n_trials] = uniforms < q
        samples = batched_gamma(graph, alive)
    else:
        m = graph.m
        uniforms = rng.random((n_trials, m))
        keep = np.empty((k * n_trials, m), dtype=bool)
        for j, q in enumerate(qs):
            keep[j * n_trials: (j + 1) * n_trials] = uniforms < q
        alive = np.ones((k * n_trials, n), dtype=bool)
        samples = batched_gamma(graph, alive, edge_alive=keep)
    return samples.reshape(k, n_trials).mean(axis=1)


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
    ladder: int = 1,
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
    ladder:
        Probes per batched round.  ``1`` (default) is classical midpoint
        bisection with exactly the historical probe/RNG sequence.
        ``k ≥ 2`` evaluates ``k`` evenly spaced interior probes per round
        in one stacked kernel call (monotone-coupled uniforms), shrinking
        the bracket ``(k+1)×`` per call — same bracketing guarantees,
        different (equally valid) probe schedule, and markedly faster
        when per-call overhead dominates.

    Either schedule stops after at most 30 probes.
    """
    gamma_target = check_fraction(gamma_target, "gamma_target")
    n_trials = check_positive_int(n_trials, "n_trials")
    ladder = check_positive_int(ladder, "ladder")
    lo, hi = float(q_lo), float(q_hi)
    if not 0.0 <= lo < hi <= 1.0:
        raise InvalidParameterError(
            f"need 0 <= q_lo < q_hi <= 1, got q_lo={q_lo}, q_hi={q_hi}"
        )
    rng = as_generator(seed)
    probes = 0

    if ladder > 1:
        while hi - lo > tol and probes < _MAX_PROBES:
            k = min(ladder, _MAX_PROBES - probes)
            step = (hi - lo) / (k + 1)
            qs = [lo + (j + 1) * step for j in range(k)]
            means = _gamma_ladder(graph, qs, n_trials, rng, mode)
            probes += k
            # first probe at/above the target closes the bracket from
            # above; its predecessor (or lo) closes it from below
            new_lo, new_hi = lo, hi
            for q, g in zip(qs, means):
                if g >= gamma_target:
                    new_hi = q
                    break
                new_lo = q
            lo, hi = new_lo, new_hi
        return ThresholdEstimate(
            lo=lo, hi=hi, gamma_target=gamma_target, mode=mode, n_probes=probes
        )

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

"""Reference helpers for tests and benchmarks.

The sweep layer picks the batched engine wherever it can
(:func:`repro.api.sweeps.execute_units`); the scalar engine stays as the
reference those batched results are compared against.
:func:`scalar_sweep` runs a whole sweep on that reference path.  Likewise
:func:`scalar_site_percolation` and :func:`scalar_bond_percolation` are
the per-trial loops the batched percolation estimators must reproduce.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .api.session import Session
from .api.sweeps import SweepDriver, SweepResult, SweepSpec
from .graphs.graph import Graph
from .percolation.bonds import BondPercolationResult, bond_percolation_trial
from .percolation.sites import SitePercolationResult, site_percolation_trial
from .util.rng import SeedLike, spawn
from .util.stats import OnlineStats
from .util.validation import check_positive_int, check_probability

__all__ = ["scalar_sweep", "scalar_site_percolation", "scalar_bond_percolation"]


def scalar_sweep(sweep: SweepSpec, session: Optional[Session] = None) -> SweepResult:
    """``run_sweep`` with every trial on the scalar engine.

    Drives a :class:`~repro.api.sweeps.SweepDriver` through
    :meth:`Session.run_iter` (a storeless serial session by default), so
    the result — fingerprint included — is what the batched path must
    reproduce bit for bit.
    """
    sess = session if session is not None else Session()
    driver = SweepDriver(sweep)
    while requests := driver.next_round():
        units = [(i, t) for i, start, n in requests for t in range(start, start + n)]
        specs = [sweep.trial_spec(driver.points[i], t) for i, t in units]
        for (i, t), result in zip(units, sess.run_iter(specs)):
            driver.fold(i, t, result)
    return driver.result()


def _scalar_percolation(trial, result_type, graph, q, n_trials, seed):
    """One ``trial`` call per spawned stream, aggregated in trial order."""
    q = check_probability(q, "q")
    n_trials = check_positive_int(n_trials, "n_trials")
    rngs = spawn(seed, n_trials)
    samples = np.empty(n_trials, dtype=np.float64)
    stats = OnlineStats()
    for i in range(n_trials):
        samples[i] = trial(graph, q, rngs[i])
        stats.push(samples[i])
    return result_type(
        q=q,
        gamma_mean=stats.mean,
        gamma_std=stats.std if n_trials > 1 else 0.0,
        n_trials=n_trials,
        samples=samples,
    )


def scalar_site_percolation(
    graph: Graph, q: float, *, n_trials: int = 20, seed: SeedLike = None
) -> SitePercolationResult:
    """:func:`~repro.percolation.sites.site_percolation` as a per-trial loop.

    Trial ``i`` is one :func:`~repro.percolation.sites.site_percolation_trial`
    on the ``i``-th stream of ``spawn(seed, n_trials)`` — the streams the
    batched estimator draws from — so the two results must be equal.
    """
    return _scalar_percolation(
        site_percolation_trial, SitePercolationResult, graph, q, n_trials, seed
    )


def scalar_bond_percolation(
    graph: Graph, q: float, *, n_trials: int = 20, seed: SeedLike = None
) -> BondPercolationResult:
    """:func:`~repro.percolation.bonds.bond_percolation` as a per-trial loop
    of :func:`~repro.percolation.bonds.bond_percolation_trial`, over the
    same spawned streams."""
    return _scalar_percolation(
        bond_percolation_trial, BondPercolationResult, graph, q, n_trials, seed
    )

"""Programmatic runners for the paper's experiments (E1–E11 in DESIGN.md,
plus the related-literature scenario suite E12–E14).

Every theorem/claim of the paper is regenerated by one function here; the
benchmark modules time these runners and print their tables, and the paper
report pipeline (:mod:`repro.report.paper`) renders, plots and diffs them.
Each runner returns an :class:`~repro.report.tables.ExperimentTable` — a
read-only sequence of row-dicts (so anything that consumed the former bare
row list still works) carrying the metadata the report layer needs: title,
paper section, which columns are Monte-Carlo estimates with CI half-widths
(``stat_columns``), which are theory-bound pass/fail checks
(``check_columns``), and provenance records (sweep/spec content hashes,
seed policies, trial counts) for the run manifest.

Since the sweep subsystem landed (:mod:`repro.api.sweeps`), the runners
are thinner still: each one *builds a SweepSpec* — a declarative grid over
graph/fault/analysis parameters with a per-point trial count — and hands
it to :func:`repro.api.sweeps.run_sweep`, which expands the grid into
per-trial work units, streams them through a
:class:`repro.api.session.Session` (baseline dedup, process fan-out,
store-backed resume at trial granularity), and folds results into online
aggregates.  Runners then post-process either the per-point statistics
(mean/std/CI of a named metric) or the raw per-trial
:class:`~repro.api.specs.RunResult`s into table rows.  Experiments whose
measurements fall outside the fault→prune→measure pipeline (E7/E8/E10:
span and percolation surveys) still resolve their topologies declaratively
through the session but keep their own measurement loops.

Trial seeds are derived inside the sweep layer
(``SeedSequence`` keyed by point content hash × trial index), so a runner's
numbers are identical for ``workers=1`` vs ``N`` and for fresh vs resumed
(store-backed) invocations.  E11 uses ``seed_policy="fault"`` so every
finder variant sees *identical* fault draws.

Execution strategy: since the batched trial engine landed
(:mod:`repro.batch`), ``run_sweep`` evaluates each grid point's trials as
one ``(T × n)`` mask-matrix batch whenever the point's scenario is
measure-only with a vectorisable fault model — E5's disintegration curves
are the heavy beneficiary here, and E8's percolation surveys ride the
batched kernels through :func:`repro.percolation.sites.site_percolation` /
:func:`repro.percolation.bonds.bond_percolation`.  Points the batched
engine cannot express (pruning analyses: E1/E6/E9/E11; structured attack
models: E3/E4) fall back to the scalar path automatically.  The choice is
invisible in every number: batched and scalar trials are bit-identical
(property-tested in ``tests/batch/``), so tables, manifests and store
entries do not depend on it.

Sizing: defaults are chosen so the full suite completes in minutes on a
laptop; the ``scale`` knobs let heavier runs reproduce the same shapes at
larger n.  Every runner takes ``session`` (an explicit
:class:`~repro.api.session.Session`, e.g. store-backed for cached/resumable
reruns) or, when ``session`` is omitted, builds a throwaway one from
``workers``; ``workers=1`` keeps everything serial and in-process.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

import numpy as np

from ..api.session import Session
from ..api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from ..api.sweeps import Axis, SweepSpec, run_sweep
from ..percolation.known import known_thresholds
from ..report.tables import ExperimentTable, StatColumn
from ..percolation.threshold import estimate_critical_probability
from ..routing.loadbalance import diffusion_rounds_to_balance
from ..routing.paths import expansion_distance_bound, stretch_statistics
from ..span.compact_enum import random_compact_set
from ..span.mesh_tree import mesh_boundary_tree
from ..span.span import span_exact
from ..util.rng import SeedLike, spawn
from . import bounds

__all__ = [
    "experiment_e1_adversarial_prune",
    "experiment_e2_chain_expansion",
    "experiment_e3_chain_attack",
    "experiment_e4_uniform_attack",
    "experiment_e5_random_disintegration",
    "experiment_e6_prune2_threshold",
    "experiment_e7_mesh_span",
    "experiment_e8_percolation_table",
    "experiment_e9_routing",
    "experiment_e10_open_problem_span",
    "experiment_e11_cutfinder_ablation",
    "experiment_e12_cascade_size",
    "experiment_e13_shortcut_robustness",
    "experiment_e14_smallworld_disintegration",
    "ALL_EXPERIMENTS",
    "EXPERIMENT_META",
]

Row = Dict[str, object]

#: Report metadata per experiment: titles, the paper section each table
#: regenerates, the row-identity columns the differ joins on, which columns
#: are theory-bound checks, and which carry Monte-Carlo estimates (declared
#: per runner via ``stat_columns``).
EXPERIMENT_META: Dict[str, Dict[str, object]] = {
    "e1": dict(
        title="Theorem 2.1 — Prune under adversarial faults",
        paper_section="§2, Theorem 2.1",
        caption="Surviving size and expansion of Prune's output H against "
        "the theorem's two guarantees, across adversarial fault budgets.",
        key_columns=("graph", "k"),
        check_columns=("size_ok", "alpha_ok"),
    ),
    "e2": dict(
        title="Claim 2.4 — chain-replacement expansion Θ(1/k)",
        paper_section="§2, Claim 2.4",
        caption="α(H(G,k))·k stays flat across k; the 2/k upper bound holds.",
        key_columns=("k",),
        check_columns=("upper_ok",),
    ),
    "e3": dict(
        title="Theorem 2.3 — chain-centre attack shatters H(G,k)",
        paper_section="§2, Theorem 2.3",
        caption="One faulty centre per chain leaves only sublinear components.",
        key_columns=("n_base", "k"),
        check_columns=("bound_ok",),
    ),
    "e4": dict(
        title="Theorem 2.5 — shattering uniform-expansion graphs",
        paper_section="§2, Theorem 2.5",
        caption="Faults needed to break tori into < εn pieces vs the "
        "O(log(1/ε)/ε · α(n) · n) bound, generic process vs axis attack.",
        key_columns=("graph", "eps"),
        check_columns=("generic_ok",),
    ),
    "e5": dict(
        title="Theorem 3.1 — random faults at p = Θ(α)",
        paper_section="§3.1, Theorem 3.1",
        caption="Disintegration curves: chain graphs die at p = Θ(α) while "
        "the torus survives the same expansion-relative budget.",
        # α identifies the sampled graph *instance*: runs with different
        # seeds draw different expanders, whose rows must not be compared
        # as if they measured the same quantity.
        key_columns=("graph", "p_over_alpha", "alpha"),
        check_columns=(),
    ),
    "e6": dict(
        title="Theorem 3.4 — Prune2 success threshold",
        paper_section="§3.2, Theorem 3.4",
        caption="Empirical Prune2 success probability vs fault probability; "
        "the theory threshold is far more conservative than practice.",
        key_columns=("graph", "p_fault"),
        check_columns=(),
    ),
    "e7": dict(
        title="Theorem 3.6 / Lemma 3.7 — mesh span ≤ 2",
        paper_section="§3.3, Theorem 3.6",
        caption="Exact span of small meshes and sampled constructive ratios "
        "of large ones stay under the bound of 2.",
        key_columns=("mesh", "method"),
        check_columns=("ok",),
    ),
    "e8": dict(
        title="§1.1 survey — critical probabilities (table T1)",
        paper_section="§1.1, Table 1",
        caption="Measured percolation thresholds bracket the literature "
        "values the paper surveys.",
        key_columns=("family", "mode"),
        check_columns=(),
    ),
    "e9": dict(
        title="§4 — routing / load-balancing consequences",
        paper_section="§4",
        caption="After faults + pruning the survivors keep bounded stretch "
        "and near-baseline diffusion balancing speed.",
        key_columns=("graph", "p"),
        check_columns=(),
    ),
    "e10": dict(
        title="§4 open problem — span of butterfly / de Bruijn / S-E",
        paper_section="§4 (open problem)",
        caption="Sampled span ratios stay flat across a size step — evidence "
        "for the conjectured O(1) span.",
        key_columns=("family", "graph"),
        check_columns=(),
    ),
    "e11": dict(
        title="Ablation — cut-finder strategies",
        paper_section="DESIGN.md §2 (substitution)",
        caption="Heuristic sweep search vs exhaustive ground truth: the "
        "heuristics only under-cull, refine improves certified culls.",
        key_columns=("graph", "finder"),
        check_columns=(),
    ),
    "e12": dict(
        title="Load cascades — failed fraction vs tolerance margin α",
        paper_section="ROADMAP item 4 (Motter–Lai / Witthaut–Timme)",
        caption="Mean cascade size (failed fraction) and surviving γ after "
        "a single seed failure, as the capacity margin α grows: small "
        "margins let one failure snowball, large ones confine it.",
        key_columns=("graph", "alpha"),
        check_columns=(),
    ),
    "e13": dict(
        title="Shortcut hardening — robustness gain from k added edges",
        paper_section="ROADMAP item 4 (Hayashi–Matsukubo)",
        caption="Mean γ under random faults on a geographic random graph "
        "hardened with k uniform shortcut edges (the k sets are nested, "
        "so each row measures a strictly larger overlay).",
        key_columns=("k", "p_fault"),
        check_columns=(),
    ),
    "e14": dict(
        title="Small-world vs regular lattices under random faults",
        paper_section="ROADMAP item 4 (Demichev et al.)",
        caption="Disintegration curves of equal-degree lattices: ring and "
        "torus against their Watts–Strogatz rewirings — a little rewiring "
        "buys most of the robustness gain.",
        key_columns=("graph", "p_fault"),
        check_columns=(),
    ),
}


def _sweep_provenance(sweep: SweepSpec) -> Dict[str, object]:
    """Manifest record of one executed sweep (content hash + seed policy)."""
    return {
        "kind": "sweep",
        "hash": sweep.hash(),
        "label": sweep.label,
        "seed": sweep.seed,
        "seed_policy": sweep.seed_policy,
        "trials": sweep.trials,
        "points": sweep.n_points,
        "metrics": list(sweep.metrics),
    }


def _graph_provenance(spec: GraphSpec) -> Dict[str, object]:
    """Manifest record of a topology resolved outside the sweep layer."""
    return {"kind": "graph", "hash": spec.key(), "generator": spec.generator}


def _table(
    eid: str,
    rows: List[Row],
    *,
    provenance: List[Dict[str, object]] = None,
    stat_columns: tuple = (),
) -> ExperimentTable:
    meta = EXPERIMENT_META[eid]
    return ExperimentTable(
        experiment=eid,
        title=str(meta["title"]),
        rows=tuple(rows),
        paper_section=str(meta["paper_section"]),
        caption=str(meta["caption"]),
        key_columns=tuple(meta["key_columns"]),
        check_columns=tuple(meta["check_columns"]),
        stat_columns=stat_columns,
        provenance=tuple(provenance or ()),
    )


def _ci(stats) -> Optional[float]:
    """A JSON-safe 95% CI half-width cell for a sweep's
    :class:`~repro.api.sweeps.PointStats` (``None`` while n < 2).

    The manifest differ treats the declared interval as ``mean ± half``,
    so the half-width must make that symmetric interval *contain* the
    true one.  Wilson intervals are asymmetric at extreme rates — their
    Wald-style half ``(hi − lo)/2`` around the sample mean can exclude
    part of the real interval and false-flag compatible runs — so
    indicator metrics use ``max(hi − mean, mean − lo)``.  Real-valued
    means are widened from the normal to the Student-t critical value,
    which is what keeps a handful-of-trials smoke run from flagging seed
    noise as a reproduction failure in ``paper diff``.
    """
    from ..util.stats import t_value, z_value

    half = stats.halfwidth
    if not math.isfinite(half):
        return None
    if stats.interval == "wilson":
        half = max(stats.ci_hi - stats.mean, stats.mean - stats.ci_lo)
    elif stats.interval == "normal" and stats.n >= 2:
        half *= t_value(0.95, stats.n - 1) / z_value(0.95)
    return round(half, 4)


def _ci01(stats) -> Optional[float]:
    """:func:`_ci` for metrics bounded in [0, 1] (e.g. γ).

    Near a percolation transition the per-trial distribution is bimodal,
    so the sample std of a handful of trials can collapse to near zero
    when the draws happen to land in one mode — the t-interval then
    wildly undercovers.  Floor the std at half the Popoviciu bound for
    the observed mean, ``sqrt(m(1-m))/2``, which a [0, 1] variable can
    always legitimately reach.
    """
    from ..util.stats import t_value

    if stats.n < 2 or not math.isfinite(stats.halfwidth):
        return None
    m = min(max(stats.mean, 0.0), 1.0)
    std = max(stats.std, math.sqrt(m * (1.0 - m)) / 2.0)
    half = t_value(0.95, stats.n - 1) * std / math.sqrt(stats.n)
    return round(half, 4)


def _get_session(session: Optional[Session], workers: Optional[int]) -> Session:
    """The runner's execution context: the caller's session, or a throwaway
    one sized by ``workers`` (``session`` wins when both are given)."""
    return session if session is not None else Session(workers=workers)

#: Analysis that only measures the fault components (no pruning, no
#: survivor expansion estimate, so no baseline) — percolation-style
#: scenarios.
_MEASURE_ONLY = AnalysisSpec(mode="node", pruner=None, measure_expansion=False)


def _seed_seq(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return seed.bit_generator.seed_seq  # type: ignore[union-attr]
    return np.random.SeedSequence(seed)


def _child_ints(seed: SeedLike, n: int) -> List[int]:
    """``n`` independent integer seeds derived from ``seed`` — the JSON-safe
    analogue of :func:`repro.util.rng.spawn` for building spec lists."""
    return [int(x) for x in _seed_seq(seed).generate_state(n, dtype=np.uint64)]


# --------------------------------------------------------------------- #
# E1 — Theorem 2.1: Prune under adversarial faults
# --------------------------------------------------------------------- #

def experiment_e1_adversarial_prune(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Sweep adversarial fault budgets; check Theorem 2.1's two guarantees.

    Columns: graph, k, f, |H| (measured), size bound ``n − k·f/α``,
    measured α(H), expansion bound ``(1 − 1/k)·α``, both pass/fail flags.
    """
    gseed, sweep_seed = _child_ints(seed, 2)
    graph_specs = [
        GraphSpec("hypercube", {"d": 5 + (scale > 1)}),
        GraphSpec("torus", {"sides": 8 * scale, "d": 2}),
        GraphSpec("expander", {"n": 64 * scale, "degree": 4, "seed": gseed}),
    ]
    sess = _get_session(session, workers)
    provenance = [_graph_provenance(g) for g in graph_specs]
    results: List[tuple] = []  # (k, RunResult) in stable grid order
    for gspec in graph_specs:
        alpha = sess.baseline(gspec).value
        if alpha <= 0:
            continue
        n = sess.resolve_graph(gspec)[0].n
        for k in (2, 4):
            f_max = bounds.prune_max_faults(n, alpha, k)
            sweep = SweepSpec(
                base=ScenarioSpec(
                    graph=gspec,
                    fault=FaultSpec("separator", {"budget": 0}),
                    analysis=AnalysisSpec(
                        mode="node", pruner="prune", epsilon=1.0 - 1.0 / k
                    ),
                ),
                axes=(
                    Axis(
                        "fault.params.budget",
                        tuple(sorted({0, max(1, f_max // 2), max(1, f_max)})),
                    ),
                ),
                seed=sweep_seed,
                metrics=("n_surviving",),
                label=f"e1:{gspec.generator}:k={k}",
            )
            provenance.append(_sweep_provenance(sweep))
            for point in run_sweep(sweep, sess, keep_results=True).points:
                results.append((k, point.results[0]))
    rows: List[Row] = []
    for k, res in results:
        alpha = res.baseline_expansion
        size_bound = bounds.prune_surviving_size(res.n_original, res.f, alpha, k)
        exp_bound = bounds.prune_expansion(alpha, k)
        h_alpha = res.surviving_expansion if res.surviving_expansion is not None else 0.0
        rows.append(
            {
                "graph": res.graph_name,
                "n": res.n_original,
                "alpha": round(alpha, 4),
                "k": k,
                "f": res.f,
                "H_size": res.n_surviving,
                "size_bound": round(size_bound, 1),
                "size_ok": res.n_surviving >= size_bound - 1e-9,
                "H_alpha": round(h_alpha, 4),
                "alpha_bound": round(exp_bound, 4),
                "alpha_ok": h_alpha >= exp_bound - 1e-9,
            }
        )
    return _table("e1", rows, provenance=provenance)


# --------------------------------------------------------------------- #
# E2 — Claim 2.4: chain-replacement expansion is Θ(1/k)
# --------------------------------------------------------------------- #

def experiment_e2_chain_expansion(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Measure ``α(H(G,k))·k`` across k — flat means Θ(1/k) holds.

    Columns: k, N = |H|, measured α, α·k, and Claim 2.4's ``2/k`` upper
    bound check.
    """
    base_seed = (
        int(seed) if isinstance(seed, (int, np.integer)) else _child_ints(seed, 1)[0]
    )
    base_spec = GraphSpec("expander", {"n": 32 * scale, "degree": 4, "seed": base_seed})
    sess = _get_session(session, workers)
    base_graph, _ = sess.resolve_graph(base_spec)
    provenance = [_graph_provenance(base_spec)]
    rows: List[Row] = []
    for k in (2, 4, 8, 16):
        chain_spec = GraphSpec("chain_replacement", {"base": base_spec, "k": k})
        provenance.append(_graph_provenance(chain_spec))
        alpha = sess.baseline(chain_spec).value
        lo, hi = bounds.chain_expansion_bounds(k, base_graph.max_degree, beta=0.5)
        rows.append(
            {
                "k": k,
                "N": sess.resolve_graph(chain_spec)[0].n,
                "alpha": round(alpha, 5),
                "alpha_times_k": round(alpha * k, 4),
                "claim_upper_2_over_k": round(hi, 5),
                "upper_ok": alpha <= hi + 1e-9,
            }
        )
    return _table("e2", rows, provenance=provenance)


# --------------------------------------------------------------------- #
# E3 — Theorem 2.3: chain-centre attack shatters H(G, k)
# --------------------------------------------------------------------- #

def experiment_e3_chain_attack(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Remove one centre per chain; components must drop below the paper's
    per-component bound ``δ·k/2 + δ + 1`` (sublinear in N).

    Columns: base n, k, N, faults f, fault fraction (≈ α levels), largest
    surviving component, the bound, and the fraction — shrinking with N.
    """
    sess = _get_session(session, workers)
    n_bases = (32 * scale, 64 * scale, 128 * scale)
    k_values = (4, 8)
    ints = _child_ints(seed, len(n_bases) * len(k_values) + 1)
    cases: List[tuple] = []
    chain_specs: List[GraphSpec] = []
    i = 0
    for n_base in n_bases:
        for k in k_values:
            base_spec = GraphSpec(
                "expander", {"n": n_base, "degree": 4, "seed": ints[i]}
            )
            i += 1
            chain_specs.append(
                GraphSpec("chain_replacement", {"base": base_spec, "k": k})
            )
            cases.append((base_spec, k))
    sweep = SweepSpec(
        base=ScenarioSpec(
            graph=chain_specs[0],
            fault=FaultSpec("chain_center", {}),
            analysis=_MEASURE_ONLY,
        ),
        axes=(Axis("graph", tuple(chain_specs)),),
        seed=ints[-1],
        metrics=("largest_faulty_component",),
        label="e3",
    )
    points = run_sweep(sweep, sess, keep_results=True).points
    rows: List[Row] = []
    for (base_spec, k), point in zip(cases, points):
        res = point.results[0]
        base_graph, _ = sess.resolve_graph(base_spec)
        comp_bound = bounds.chain_attack_component_bound(base_graph.max_degree, k)
        rows.append(
            {
                "n_base": base_graph.n,
                "k": k,
                "N": res.n_original,
                "f": res.f,
                "fault_frac": round(res.fault_fraction, 4),
                "largest_comp": res.largest_faulty_component,
                "comp_bound": comp_bound,
                "bound_ok": res.largest_faulty_component <= comp_bound,
                "largest_frac": round(res.largest_faulty_component / res.n_original, 4),
            }
        )
    return _table("e3", rows, provenance=[_sweep_provenance(sweep)])


# --------------------------------------------------------------------- #
# E4 — Theorem 2.5: shattering uniform-expansion graphs
# --------------------------------------------------------------------- #

def experiment_e4_uniform_attack(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Shatter 2-D/3-D tori into ``< εn`` pieces; compare fault count with
    the ``O(log(1/ε)/ε·α(n)·n)`` bound and with the geometric axis attack.

    Columns: graph, ε, faults used (generic process), faults used (axis
    attack), theorem bound, largest piece fraction after each.
    """
    graph_specs = [
        GraphSpec("torus", {"sides": 12 * scale, "d": 2}),
        GraphSpec("torus", {"sides": 5 * scale, "d": 3}),
    ]
    eps_values = (0.25, 0.125)
    (sweep_seed,) = _child_ints(seed, 1)
    # the grid: graph × ε × attack model, expanded row-major by the sweep
    sweep = SweepSpec(
        base=ScenarioSpec(
            graph=graph_specs[0],
            fault=FaultSpec("recursive_bisection", {"epsilon": eps_values[0]}),
            analysis=_MEASURE_ONLY,
        ),
        axes=(
            Axis("graph", tuple(graph_specs)),
            Axis("fault.params.epsilon", eps_values),
            Axis("fault.model", ("recursive_bisection", "axis_cut")),
        ),
        seed=sweep_seed,
        metrics=("fault_fraction",),
        label="e4",
    )
    sess = _get_session(session, workers)
    results = iter(
        p.results[0] for p in run_sweep(sweep, sess, keep_results=True).points
    )
    rows: List[Row] = []
    for gspec in graph_specs:
        alpha = sess.baseline(gspec).value
        for eps in eps_values:
            generic = next(results)
            axis = next(results)
            bound = bounds.theorem25_fault_bound(generic.n_original, alpha, eps)
            rows.append(
                {
                    "graph": generic.graph_name,
                    "n": generic.n_original,
                    "alpha": round(alpha, 4),
                    "eps": eps,
                    "f_generic": generic.f,
                    "f_axis": axis.f,
                    "bound": round(bound, 1),
                    "generic_ok": generic.f <= bound,
                    "axis_largest_frac": round(
                        axis.largest_faulty_component / axis.n_original, 4
                    ),
                    "generic_largest_frac": round(
                        generic.largest_faulty_component / generic.n_original, 4
                    ),
                }
            )
    return _table("e4", rows, provenance=[_sweep_provenance(sweep)])


# --------------------------------------------------------------------- #
# E5 — Theorem 3.1 / §3.1: random faults at p = Θ(α)
# --------------------------------------------------------------------- #

def experiment_e5_random_disintegration(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    n_trials: int = 10,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """The paper's headline contrast: chain graphs die at ``p = Θ(α)``;
    the torus (whose expansion is *much smaller* than its fault tolerance)
    survives the same expansion-relative budget comfortably.

    Each graph is one :class:`SweepSpec` — a fault-probability axis at
    expansion-relative levels with ``n_trials`` Monte-Carlo trials per
    point, aggregated online by the sweep layer (``gamma`` metric).

    Columns: graph, measured α, p/α multiple, fault probability, mean γ
    (largest-component fraction) over trials with its 95% CI half-width.
    """
    mults = (0.5, 1.0, 2.0, 4.0)
    ints = _child_ints(seed, 3)
    chain_spec = GraphSpec(
        "chain_replacement",
        {
            "base": GraphSpec(
                "expander", {"n": 48 * scale, "degree": 4, "seed": ints[0]}
            ),
            "k": 8,
        },
    )
    tor_spec = GraphSpec("torus", {"sides": 20 * scale, "d": 2})
    cases = [(chain_spec, "chain(k=8)"), (tor_spec, "torus-2d")]
    sess = _get_session(session, workers)
    provenance = [_graph_provenance(g) for g, _ in cases]
    rows: List[Row] = []
    for ci, (gspec, label) in enumerate(cases):
        alpha = sess.baseline(gspec).value
        n = sess.resolve_graph(gspec)[0].n
        ps = tuple(min(0.95, mult * alpha) for mult in mults)
        sweep = SweepSpec(
            base=ScenarioSpec(
                graph=gspec,
                fault=FaultSpec("random_node", {"p": ps[0]}),
                analysis=_MEASURE_ONLY,
            ),
            axes=(Axis("fault.params.p", ps),),
            trials=n_trials,
            seed=ints[1 + ci],
            metrics=("gamma",),
            label=f"e5:{label}",
        )
        provenance.append(_sweep_provenance(sweep))
        result = run_sweep(sweep, sess)
        for mult, p, point in zip(mults, ps, result.points):
            gamma = point.stats["gamma"]
            rows.append(
                {
                    "graph": label,
                    "n": n,
                    "alpha": round(alpha, 4),
                    "p_over_alpha": mult,
                    "p_fault": round(p, 4),
                    "trials": gamma.n,
                    "gamma_mean": round(gamma.mean, 4),
                    "gamma_std": round(
                        gamma.std if n_trials > 1 else 0.0, 4
                    ),
                    "gamma_ci95": _ci01(gamma),
                }
            )
    return _table(
        "e5", rows,
        provenance=provenance,
        stat_columns=(StatColumn("gamma_mean", "gamma_ci95", "trials"),),
    )


# --------------------------------------------------------------------- #
# E6 — Theorem 3.4: Prune2 under random faults
# --------------------------------------------------------------------- #

def experiment_e6_prune2_threshold(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    n_trials: int = 5,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Success probability of Prune2's guarantee vs fault probability.

    Success = ``|H| ≥ n/2`` and ``αe(H) ≥ ε·αe``.  The theory threshold
    ``1/(2e·δ^{4σ})`` is printed alongside — the paper's own discussion
    (Section 4) expects it to be very conservative.
    """
    sess = _get_session(session, workers)
    gspec = GraphSpec("torus", {"sides": 10 * scale, "d": 2})
    graph, _ = sess.resolve_graph(gspec)
    delta = graph.max_degree
    sigma = 2.0  # Theorem 3.6 for meshes
    eps = 1.0 / (2.0 * delta)
    conds = bounds.theorem34_conditions(graph.n, delta, sigma)
    p_values = (conds["p_max"], 0.01, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50)
    (sweep_seed,) = _child_ints(seed, 1)
    sweep = SweepSpec(
        base=ScenarioSpec(
            graph=gspec,
            fault=FaultSpec("random_node", {"p": float(p_values[0])}),
            analysis=AnalysisSpec(mode="edge", pruner="prune2", epsilon=eps),
        ),
        axes=(Axis("fault.params.p", tuple(float(p) for p in p_values)),),
        trials=n_trials,
        seed=sweep_seed,
        # the success indicator (Wilson-intervalled) drives the table; the
        # companions ride along in the same streamed aggregation pass
        metrics=("prune2_success", "n_surviving", "baseline_expansion"),
        label="e6",
    )
    result = run_sweep(sweep, sess)
    rows: List[Row] = []
    for p, point in zip(p_values, result.points):
        success = point.stats["prune2_success"]
        rows.append(
            {
                "graph": graph.name,
                "p_fault": round(float(p), 6),
                "theory_p_max": round(conds["p_max"], 8),
                "eps": round(eps, 4),
                "alpha_e": round(point.stats["baseline_expansion"].mean, 4),
                "trials": success.n,
                "success_rate": success.mean,
                "success_ci95": _ci(success),
                "mean_H_size": point.stats["n_surviving"].mean,
                "H_ci95": _ci(point.stats["n_surviving"]),
                "half_n": graph.n / 2,
            }
        )
    return _table(
        "e6", rows,
        provenance=[_graph_provenance(gspec), _sweep_provenance(sweep)],
        stat_columns=(
            StatColumn("success_rate", "success_ci95", "trials"),
            StatColumn("mean_H_size", "H_ci95", "trials"),
        ),
    )


# --------------------------------------------------------------------- #
# E7 — Theorem 3.6 / Lemma 3.7: mesh span
# --------------------------------------------------------------------- #

def experiment_e7_mesh_span(
    *,
    seed: SeedLike = 0,
    n_samples: int = 40,
    scale: int = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Exact span of small meshes + constructive ratio on sampled compact
    sets of large meshes; Lemma 3.7 connectivity checked per sample.

    Columns: mesh, method, span (exact or max sampled constructive ratio),
    the Theorem 3.6 bound (2), pass flag, and the virtual-graph connectivity
    rate.
    """
    sess = _get_session(session, 1)
    provenance: List[Dict[str, object]] = []
    rows: List[Row] = []
    for sides in ([3, 4], [2, 2, 3]):
        gspec = GraphSpec("mesh", {"sides": sides})
        provenance.append(_graph_provenance(gspec))
        g, _ = sess.resolve_graph(gspec)
        res = span_exact(g, max_nodes=14)
        rows.append(
            {
                "mesh": g.name,
                "method": "exact-enumeration",
                "span": round(res.value, 4),
                "bound": bounds.mesh_span_bound(),
                "ok": res.value <= bounds.mesh_span_bound() + 1e-9,
                "virtual_connected_rate": 1.0,
                "samples": "all-compact-sets",
            }
        )
    rngs = spawn(seed, 10_000)
    rng_i = 0
    for sides in ([12 * scale, 12 * scale], [6 * scale, 6, 6], [4, 4, 4, 4]):
        gspec = GraphSpec("mesh", {"sides": sides})
        provenance.append(_graph_provenance(gspec))
        g, _ = sess.resolve_graph(gspec)
        max_ratio = 0.0
        connected_count = 0
        accepted = 0
        while accepted < n_samples and rng_i < len(rngs):
            u = random_compact_set(g, seed=rngs[rng_i])
            rng_i += 1
            if u is None:
                continue
            result = mesh_boundary_tree(g, u)
            accepted += 1
            connected_count += int(result.virtual_connected)
            if result.virtual_connected:
                max_ratio = max(max_ratio, result.ratio)
        rows.append(
            {
                "mesh": g.name,
                "method": "constructive-sampled",
                "span": round(max_ratio, 4),
                "bound": bounds.mesh_span_bound(),
                "ok": max_ratio <= bounds.mesh_span_bound() + 1e-9,
                "virtual_connected_rate": connected_count / max(accepted, 1),
                "samples": accepted,
            }
        )
    return _table("e7", rows, provenance=provenance)


# --------------------------------------------------------------------- #
# E8 — Section 1.1 survey: critical probabilities
# --------------------------------------------------------------------- #

def experiment_e8_percolation_table(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    n_trials: int = 8,
    tol: float = 0.03,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Measured percolation thresholds vs the literature table the paper
    surveys.  Columns: family, mode, literature p* (display string plus
    numeric ``lit_lo``/``lit_hi``), measured bracket (midpoint plus numeric
    ``bracket_lo``/``bracket_hi``/``bracket_half``).
    """
    known = {k.family: k for k in known_thresholds()}
    cases = [
        (
            "complete graph K_n",
            GraphSpec("complete_graph", {"n": 48 * scale}),
            {"n": 48 * scale},
            "bond",
        ),
        (
            "random graph, d·n/2 edges",
            GraphSpec("gnm_random", {"n": 256 * scale, "m": 512 * scale}),
            {"d": 4},
            "bond",
        ),
        (
            "2-D mesh (n×n)",
            GraphSpec("mesh", {"sides": [32 * scale, 32 * scale]}),
            {},
            "bond",
        ),
        ("hypercube Q_d", GraphSpec("hypercube", {"d": 9}), {"d": 9}, "bond"),
        ("butterfly", GraphSpec("butterfly", {"k": 6 + (scale > 1)}), {}, "site"),
    ]
    from ..api.registry import GENERATORS

    sess = _get_session(session, 1)
    ints = _child_ints(seed, 2 * len(cases))
    provenance: List[Dict[str, object]] = []
    rows: List[Row] = []
    for i, (family, gspec, params, mode) in enumerate(cases):
        if "seed" not in gspec.params and GENERATORS.get(gspec.generator).seeded:
            gspec = GraphSpec(gspec.generator, {**gspec.params, "seed": ints[2 * i]})
        provenance.append(_graph_provenance(gspec))
        graph, _ = sess.resolve_graph(gspec)
        est = estimate_critical_probability(
            graph, mode=mode, n_trials=n_trials, tol=tol, seed=ints[2 * i + 1]
        )
        lit = known[family]
        lit_lo = float(lit.p_star(params))
        lit_hi = float(lit.p_star_hi(params)) if lit.p_star_hi is not None else lit_lo
        rows.append(
            {
                "family": family,
                "graph": graph.name,
                "mode": mode,
                "literature_p*": lit.describe(params),
                "lit_lo": round(lit_lo, 4),
                "lit_hi": round(lit_hi, 4),
                "measured_p*": round(est.midpoint, 4),
                "bracket": f"[{est.lo:.3f}, {est.hi:.3f}]",
                "bracket_lo": round(float(est.lo), 4),
                "bracket_hi": round(float(est.hi), 4),
                "bracket_half": round((float(est.hi) - float(est.lo)) / 2.0, 4),
                # The diffable allowance: a bisection bracket is a
                # *resolution* bound, not a confidence interval — the
                # Monte-Carlo survival decisions near p* flip between runs,
                # moving the bracket by up to about its own width.  One
                # full width is the conservative per-side allowance.
                "p_allow": round(float(est.hi) - float(est.lo), 4),
                "citation": lit.citation,
            }
        )
    return _table(
        "e8", rows,
        provenance=provenance,
        stat_columns=(StatColumn("measured_p*", "p_allow"),),
    )


# --------------------------------------------------------------------- #
# E9 — Section 4: routing consequences
# --------------------------------------------------------------------- #

def experiment_e9_routing(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """After faults + pruning the surviving network retains bounded stretch
    and near-baseline load-balancing speed (Section 4's applications).

    Columns: graph, p, survivor fraction after prune, max stretch vs the
    ``O(α⁻¹ log n)`` bound, diffusion rounds (baseline / pruned H).
    """
    from ..graphs.traversal import largest_component

    graph_specs = [
        GraphSpec("torus", {"sides": 12 * scale, "d": 2}),
        GraphSpec("torus", {"sides": 6 * scale, "d": 3}),
    ]
    p_values = (0.02, 0.05, 0.10)
    (sweep_seed,) = _child_ints(seed, 1)
    rngs = spawn(seed, 100)
    rng_i = 0
    sweep = SweepSpec(
        base=ScenarioSpec(
            graph=graph_specs[0],
            fault=FaultSpec("random_node", {"p": p_values[0]}),
            analysis=AnalysisSpec(
                mode="node", pruner="prune", epsilon=0.5, measure_expansion=False
            ),
        ),
        axes=(
            Axis("graph", tuple(graph_specs)),
            Axis("fault.params.p", p_values),
        ),
        seed=sweep_seed,
        metrics=("surviving_fraction",),
        label="e9",
    )
    sess = _get_session(session, workers)
    results = iter(
        p.results[0] for p in run_sweep(sweep, sess, keep_results=True).points
    )
    rows: List[Row] = []
    for gspec in graph_specs:
        graph, _ = sess.resolve_graph(gspec)
        base_rounds = diffusion_rounds_to_balance(graph, seed=rngs[rng_i]).rounds
        rng_i += 1
        for p in p_values:
            res = next(results)
            alpha = res.baseline_expansion
            h = graph.subgraph(np.asarray(res.surviving_nodes, dtype=np.int64))
            if h.n < 4:
                continue
            comp = largest_component(h)
            h_conn = h.subgraph(comp)
            stretch = stretch_statistics(graph, h_conn, n_pairs=36, seed=rngs[rng_i])
            rng_i += 1
            dist_bound = expansion_distance_bound(alpha / 2.0, graph.n)
            h_rounds = diffusion_rounds_to_balance(h_conn, seed=rngs[rng_i]).rounds
            rng_i += 1
            rows.append(
                {
                    "graph": res.graph_name,
                    "p": p,
                    "survivor_frac": round(res.surviving_fraction, 4),
                    "stretch_mean": round(stretch.mean, 3),
                    "stretch_max": round(stretch.max, 3),
                    "dist_bound_O(a^-1 logn)": round(dist_bound, 1),
                    "diffusion_rounds_base": base_rounds,
                    "diffusion_rounds_H": h_rounds,
                }
            )
    return _table("e9", rows, provenance=[_sweep_provenance(sweep)])


# --------------------------------------------------------------------- #
# E10 — Section 4 open problem: span of butterfly / de Bruijn / S-E
# --------------------------------------------------------------------- #

def experiment_e10_open_problem_span(
    *,
    seed: SeedLike = 0,
    n_samples: int = 30,
    scale: int = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Evidence for the paper's conjecture that butterfly, shuffle-exchange
    and de Bruijn networks have span O(1).

    Sampled span ratios across two sizes per family: flat maxima across the
    size step are consistent with a constant span; the mesh row is the
    calibrated reference (true span ≤ 2).
    """
    from ..span.conjectures import survey_span

    specs = [
        (
            "butterfly",
            [
                GraphSpec("butterfly", {"k": 4}),
                GraphSpec("butterfly", {"k": 5 + (scale > 1)}),
            ],
        ),
        (
            "wrapped-butterfly",
            [
                GraphSpec("wrapped_butterfly", {"k": 3}),
                GraphSpec("wrapped_butterfly", {"k": 4}),
            ],
        ),
        (
            "debruijn",
            [GraphSpec("debruijn", {"k": 6}), GraphSpec("debruijn", {"k": 8})],
        ),
        (
            "shuffle-exchange",
            [
                GraphSpec("shuffle_exchange", {"k": 6}),
                GraphSpec("shuffle_exchange", {"k": 8}),
            ],
        ),
        (
            "mesh (reference)",
            [
                GraphSpec("mesh", {"sides": [8, 8]}),
                GraphSpec("mesh", {"sides": [16, 16]}),
            ],
        ),
    ]
    sess = _get_session(session, 1)
    rngs = spawn(seed, len(specs) * 2)
    provenance: List[Dict[str, object]] = []
    rows: List[Row] = []
    i = 0
    for family, graph_specs in specs:
        for gspec in graph_specs:
            provenance.append(_graph_provenance(gspec))
            g, _ = sess.resolve_graph(gspec)
            survey = survey_span(g, n_samples=n_samples, seed=rngs[i])
            i += 1
            row = {"family": family}
            row.update(survey.row())
            rows.append(row)
    return _table("e10", rows, provenance=provenance)


# --------------------------------------------------------------------- #
# E11 — ablation: cut-finder strategy (the DESIGN.md substitution)
# --------------------------------------------------------------------- #

def experiment_e11_cutfinder_ablation(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    n_trials: int = 3,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Ablate the Prune set-search strategy.

    The theorems quantify over all sets; our scale runs substitute a
    sweep-based search (DESIGN.md §2).  This ablation quantifies the
    substitution: on a faulty torus, compare

    * ``sweep+refine`` (library default at scale),
    * ``sweep`` without local refinement,
    * ``exhaustive`` ground truth (on a small instance only).

    Columns report surviving size, certified expansion of H, culled-set
    count and wall time.  The claim being checked: heuristic search only
    *under-culls* (|H| is never smaller than the exact run's), and refine
    improves the certified ratio of what is culled.

    Every finder sees *identical* fault sets: the sweeps run with
    ``seed_policy="fault"``, which keys trial-seed derivation by the
    (graph, fault) content only — the analysis arm (the finder) is
    excluded, so all variants replay the same fault draws.
    """
    (sweep_seed,) = _child_ints(seed, 1)
    sess = _get_session(session, workers)
    provenance: List[Dict[str, object]] = []

    def _row(finder_name, gspec, p, finder, finder_params, exact_threshold) -> Row:
        sweep = SweepSpec(
            base=ScenarioSpec(
                graph=gspec,
                fault=FaultSpec("random_node", {"p": p}),
                analysis=AnalysisSpec(
                    mode="node",
                    pruner="prune",
                    epsilon=0.5,
                    finder=finder,
                    finder_params=finder_params,
                    exact_threshold=exact_threshold,
                    measure_expansion=False,
                ),
            ),
            trials=n_trials,
            seed=sweep_seed,
            seed_policy="fault",
            metrics=("n_surviving",),
            label=f"e11:{finder}",
        )
        provenance.append(_sweep_provenance(sweep))
        t0 = time.perf_counter()
        (point,) = run_sweep(sweep, sess, keep_results=True).points
        seconds = time.perf_counter() - t0
        results = point.results
        return {
            "graph": results[0].graph_name,
            "finder": finder_name,
            "mean_H": float(np.mean([r.n_surviving for r in results])),
            "mean_culls": float(np.mean([r.n_culled_sets for r in results])),
            "sec_per_run": round(seconds / len(results), 4),
        }

    rows: List[Row] = []
    # --- exact-vs-heuristic on a small instance (heavy faults so that the
    #     prune loop actually has work to do) ----------------------------- #
    small = GraphSpec("torus", {"sides": 4, "d": 2})  # 16 nodes: exhaustive feasible
    for finder_name, finder, params in (
        ("exhaustive", "exhaustive", {"max_nodes": 16}),
        ("sweep+refine", "sweep", {"refine": True}),
        ("sweep", "sweep", {"refine": False}),
    ):
        rows.append(_row(finder_name, small, 0.35, finder, params, 16))
    # --- heuristic variants at scale ------------------------------------ #
    big = GraphSpec("torus", {"sides": 16 * scale, "d": 2})
    for finder_name, finder, params in (
        ("sweep+refine", "sweep", {"refine": True}),
        ("sweep", "sweep", {"refine": False}),
    ):
        rows.append(_row(finder_name, big, 0.20, finder, params, 14))
    return _table("e11", rows, provenance=provenance)


# --------------------------------------------------------------------- #
# E12 — load-redistribution cascades: cascade size vs tolerance margin
# --------------------------------------------------------------------- #

def experiment_e12_cascade_size(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    n_trials: int = 10,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Cascade size vs the capacity margin ``alpha`` (Motter–Lai style).

    One random seed node fails per trial; load (= degree) redistributes
    round by round and every node over ``(1 + alpha)`` times its initial
    load fails too.  The table contrasts the degree-regular torus — whose
    cascade is all-or-nothing with a sharp threshold at ``alpha = 1/4``
    (a neighbour of the seed carries ``deg + 1`` load against capacity
    ``4 (1 + alpha)``) — with a degree-heterogeneous geographic graph
    whose cascade size decays *gradually* across the margin ladder, the
    Motter–Lai signature of load heterogeneity.

    Columns: graph, α, mean failed fraction (cascade size) and mean γ
    (largest surviving component fraction) with 95% CI half-widths.
    """
    alphas = (0.0, 0.1, 0.2, 0.3, 0.5)
    ints = _child_ints(seed, 3)
    cases = [
        (GraphSpec("torus", {"sides": 12 * scale, "d": 2}), "torus-2d"),
        (
            GraphSpec(
                "geographic",
                {"n": 144 * scale, "q": 0.9, "scale": 0.11, "seed": ints[0]},
            ),
            "geographic",
        ),
    ]
    sess = _get_session(session, workers)
    provenance = [_graph_provenance(g) for g, _ in cases]
    rows: List[Row] = []
    for ci, (gspec, label) in enumerate(cases):
        n = sess.resolve_graph(gspec)[0].n
        sweep = SweepSpec(
            base=ScenarioSpec(
                graph=gspec,
                fault=FaultSpec("cascade", {"alpha": alphas[0], "n_seeds": 1}),
                analysis=_MEASURE_ONLY,
            ),
            axes=(Axis("fault.params.alpha", alphas),),
            trials=n_trials,
            seed=ints[1 + ci],
            metrics=("fault_fraction", "gamma"),
            label=f"e12:{label}",
        )
        provenance.append(_sweep_provenance(sweep))
        result = run_sweep(sweep, sess)
        for alpha, point in zip(alphas, result.points):
            size = point.stats["fault_fraction"]
            gamma = point.stats["gamma"]
            rows.append(
                {
                    "graph": label,
                    "n": n,
                    "alpha": alpha,
                    "trials": size.n,
                    "cascade_mean": round(size.mean, 4),
                    "cascade_ci95": _ci01(size),
                    "gamma_mean": round(gamma.mean, 4),
                    "gamma_ci95": _ci01(gamma),
                }
            )
    return _table(
        "e12", rows,
        provenance=provenance,
        stat_columns=(
            StatColumn("cascade_mean", "cascade_ci95", "trials"),
            StatColumn("gamma_mean", "gamma_ci95", "trials"),
        ),
    )


# --------------------------------------------------------------------- #
# E13 — shortcut hardening of geographic random graphs
# --------------------------------------------------------------------- #

def experiment_e13_shortcut_robustness(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    n_trials: int = 10,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Robustness gain from ``k`` added shortcut edges (Hayashi–Matsukubo).

    A geographic (Waxman) random graph is hardened with ``k`` uniform
    shortcut edges through the ``add_shortcuts`` composite generator, then
    swept with random node faults.  All overlays share one shortcut seed,
    so the ``k`` shortcut sets are *nested* — each row up the ladder
    measures strictly more hardening, not a different random overlay.
    (The ``add_edges`` fault model offers the same move as a scenario
    event; see ``docs/scenarios.md``.)

    Columns: shortcut count k, fault probability, mean γ over trials with
    its 95% CI half-width.
    """
    ints = _child_ints(seed, 3)
    base = GraphSpec(
        "geographic",
        {"n": 120 * scale, "q": 0.9, "scale": 0.08, "seed": ints[0]},
    )
    ks = (0, 4, 16, 48)
    graph_specs = tuple(
        GraphSpec("add_shortcuts", {"base": base, "k": k, "seed": ints[1]})
        for k in ks
    )
    ps = (0.1, 0.2, 0.3)
    sweep = SweepSpec(
        base=ScenarioSpec(
            graph=graph_specs[0],
            fault=FaultSpec("random_node", {"p": ps[0]}),
            analysis=_MEASURE_ONLY,
        ),
        axes=(Axis("graph", graph_specs), Axis("fault.params.p", ps)),
        trials=n_trials,
        seed=ints[2],
        metrics=("gamma",),
        label="e13",
    )
    sess = _get_session(session, workers)
    result = run_sweep(sweep, sess)
    points = iter(result.points)
    rows: List[Row] = []
    for k in ks:
        for p in ps:
            gamma = next(points).stats["gamma"]
            rows.append(
                {
                    "k": k,
                    "p_fault": p,
                    "trials": gamma.n,
                    "gamma_mean": round(gamma.mean, 4),
                    "gamma_ci95": _ci01(gamma),
                }
            )
    return _table(
        "e13", rows,
        provenance=[_sweep_provenance(sweep)],
        stat_columns=(StatColumn("gamma_mean", "gamma_ci95", "trials"),),
    )


# --------------------------------------------------------------------- #
# E14 — small-world vs regular lattices under random faults
# --------------------------------------------------------------------- #

def experiment_e14_smallworld_disintegration(
    *,
    seed: SeedLike = 0,
    scale: int = 1,
    n_trials: int = 10,
    workers: Optional[int] = 1,
    session: Optional[Session] = None,
) -> ExperimentTable:
    """Disintegration of small-world rewirings vs their regular lattices.

    All graphs share lattice degree 4: the ring lattice (``beta = 0``) and
    its Watts–Strogatz rewirings, plus the 2-D torus and its rewired
    variant.  γ curves under random node faults show the Demichev et al.
    effect — a small rewiring probability already buys most of the
    random-graph robustness while ``beta = 0`` lattices shatter early.

    Columns: graph, fault probability, mean γ over trials with its 95%
    CI half-width.
    """
    n_ring = 196 * scale
    side = 14 * scale
    ints = _child_ints(seed, 9)
    cases = [
        (
            "ring(beta=0)",
            GraphSpec(
                "watts_strogatz",
                {"n": n_ring, "k": 4, "beta": 0.0, "seed": ints[0]},
            ),
        ),
        (
            "ws(beta=0.1)",
            GraphSpec(
                "watts_strogatz",
                {"n": n_ring, "k": 4, "beta": 0.1, "seed": ints[1]},
            ),
        ),
        (
            "ws(beta=0.5)",
            GraphSpec(
                "watts_strogatz",
                {"n": n_ring, "k": 4, "beta": 0.5, "seed": ints[2]},
            ),
        ),
        ("torus-2d", GraphSpec("torus", {"sides": side, "d": 2})),
        (
            "swt(beta=0.1)",
            GraphSpec(
                "rewired_torus",
                {"sides": side, "d": 2, "beta": 0.1, "seed": ints[3]},
            ),
        ),
    ]
    ps = (0.05, 0.15, 0.25, 0.35, 0.45)
    sess = _get_session(session, workers)
    provenance = [_graph_provenance(g) for _, g in cases]
    rows: List[Row] = []
    for ci, (label, gspec) in enumerate(cases):
        n = sess.resolve_graph(gspec)[0].n
        sweep = SweepSpec(
            base=ScenarioSpec(
                graph=gspec,
                fault=FaultSpec("random_node", {"p": ps[0]}),
                analysis=_MEASURE_ONLY,
            ),
            axes=(Axis("fault.params.p", ps),),
            trials=n_trials,
            seed=ints[4 + ci],
            metrics=("gamma",),
            label=f"e14:{label}",
        )
        provenance.append(_sweep_provenance(sweep))
        result = run_sweep(sweep, sess)
        for p, point in zip(ps, result.points):
            gamma = point.stats["gamma"]
            rows.append(
                {
                    "graph": label,
                    "n": n,
                    "p_fault": p,
                    "trials": gamma.n,
                    "gamma_mean": round(gamma.mean, 4),
                    "gamma_ci95": _ci01(gamma),
                }
            )
    return _table(
        "e14", rows,
        provenance=provenance,
        stat_columns=(StatColumn("gamma_mean", "gamma_ci95", "trials"),),
    )


#: Registry used by the CLI (``python -m repro``) and docs.
ALL_EXPERIMENTS = {
    "e1": experiment_e1_adversarial_prune,
    "e2": experiment_e2_chain_expansion,
    "e3": experiment_e3_chain_attack,
    "e4": experiment_e4_uniform_attack,
    "e5": experiment_e5_random_disintegration,
    "e6": experiment_e6_prune2_threshold,
    "e7": experiment_e7_mesh_span,
    "e8": experiment_e8_percolation_table,
    "e9": experiment_e9_routing,
    "e10": experiment_e10_open_problem_span,
    "e11": experiment_e11_cutfinder_ablation,
    "e12": experiment_e12_cascade_size,
    "e13": experiment_e13_shortcut_robustness,
    "e14": experiment_e14_smallworld_disintegration,
}

"""First-class sweeps: declarative grids with per-trial work units.

Every experiment in the paper is really a *sweep* — a grid over graph /
fault / analysis parameters with many Monte-Carlo trials per grid point.
This module makes that shape first-class:

* :class:`Axis` — one swept dimension: a dotted path into the scenario
  spec (``"fault.params.p"``, ``"graph.params.k"``, or a whole-subtree
  replacement like ``"graph"``) plus the values it takes.
* :class:`SamplingPolicy` — how trials are allocated to grid points:
  ``fixed`` (the classic constant count), ``ci_width`` (keep sampling a
  point until its confidence interval is tighter than ``target``),
  ``budget`` (spend a fixed total, each chunk going to the currently
  noisiest point), or ``transition`` (fit the response curve online and
  concentrate chunks where predicted |dγ/dp| × CI half-width peaks).
  Each kind is realised by an :class:`Allocator` state machine
  (``policy.allocator(points)``) whose decisions are a deterministic
  function of the aggregate stream.
* :class:`SweepSpec` — the frozen, JSON-round-trippable record tying the
  above together with a trial count, a sweep seed and a seed policy.  It
  expands *deterministically* into ``(ScenarioSpec, trial index)`` work
  units, so parallelism and caching happen per trial, not per grid point.
* :func:`run_sweep` — execution: work units stream through
  :meth:`repro.api.session.Session.run_iter` (store-backed resume at trial
  granularity for free) and are folded into online aggregators
  (:mod:`repro.util.stats`) the moment they complete, giving live
  per-point estimates and the CI widths the adaptive policies act on.
  Grid points whose trials the batched engine supports (measure-only
  analyses with vectorisable fault models) are evaluated as one
  ``(T × n)`` mask-matrix batch via :mod:`repro.batch` — bit-identical
  results, a fraction of the wall clock; see :func:`execute_units`.

Trial-seed derivation (the determinism contract):  the seed of trial ``t``
at a grid point is derived from a :class:`numpy.random.SeedSequence` whose
entropy is the sweep seed and whose spawn key is ``(content hash of the
point, point index, t)`` — the keyed form of ``SeedSequence.spawn``.
Seeds therefore
depend only on *what* is being run and the trial index, never on worker
count, completion order, or how many times the sweep was interrupted and
resumed; ``workers=1`` vs ``N`` and fresh vs resumed sweeps produce
identical per-trial RNG streams and identical final fingerprints.
``seed_policy="fault"`` keys the hash by graph + fault only (analysis
excluded), so ablations over pruners/finders see *identical* fault draws
across arms.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import SpecError
from ..util.stats import (
    OnlineStats,
    P2Quantile,
    fit_isotonic,
    fit_logistic,
    logistic_slope,
    logistic_value,
    wilson_interval,
)
from .specs import (
    AnalysisSpec,
    FaultSpec,
    GraphSpec,
    RunResult,
    ScenarioSpec,
    _convert,
    canonical_json,
)

__all__ = [
    "Axis",
    "Metric",
    "METRICS",
    "register_metric",
    "Allocator",
    "PointView",
    "SamplingPolicy",
    "SweepSpec",
    "SweepPoint",
    "PointStats",
    "PointSummary",
    "SweepDriver",
    "SweepResult",
    "execute_units",
    "run_sweep",
]


# --------------------------------------------------------------------- #
# Metrics: RunResult → scalar
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Metric:
    """A named scalar derived from a :class:`RunResult`.

    ``binary`` metrics (indicator variables) get Wilson score intervals;
    real-valued metrics get normal-approximation intervals.  ``fn`` may
    return ``None`` for undefined observations (e.g. retention of an empty
    survivor set) — those are counted as skipped, not aggregated.
    """

    name: str
    fn: Callable[[RunResult], Optional[float]]
    binary: bool = False
    doc: str = ""


METRICS: Dict[str, Metric] = {}


def register_metric(
    name: str, fn: Callable[[RunResult], Optional[float]],
    *, binary: bool = False, doc: str = ""
) -> Metric:
    """Register a sweep metric (used by name in :class:`SweepSpec`)."""
    metric = Metric(name=name, fn=fn, binary=binary, doc=doc)
    METRICS[name] = metric
    return metric


def _prune2_success(r: RunResult) -> float:
    """Theorem 3.4's success event: |H| ≥ n/2 and αe(H) ≥ ε·αe(G)."""
    ok_size = r.n_surviving >= r.n_original / 2
    h_exp = r.surviving_expansion if r.surviving_expansion is not None else 0.0
    ok_exp = h_exp >= r.epsilon * r.baseline_expansion - 1e-9
    return 1.0 if (ok_size and ok_exp) else 0.0


register_metric(
    "gamma",
    lambda r: r.largest_faulty_component / max(r.n_original, 1),
    doc="largest faulty-component fraction γ (the paper's §1.1 estimator)",
)
register_metric(
    "surviving_fraction", lambda r: r.surviving_fraction,
    doc="|H| / n after pruning",
)
register_metric(
    "expansion_retention", lambda r: r.expansion_retention,
    doc="α(H)/α(G); None when H is empty or unmeasured",
)
register_metric(
    "surviving_expansion", lambda r: r.surviving_expansion,
    doc="measured α(H); None when unmeasured",
)
register_metric(
    "baseline_expansion", lambda r: r.baseline_expansion,
    doc="fault-free α(G)",
)
register_metric(
    "fault_fraction", lambda r: r.fault_fraction, doc="f / n",
)
register_metric(
    "n_surviving", lambda r: float(r.n_surviving), doc="|H| after pruning",
)
register_metric(
    "largest_faulty_component",
    lambda r: float(r.largest_faulty_component),
    doc="largest component size of the faulty graph (pre-prune)",
)
register_metric(
    "prune2_success", _prune2_success, binary=True,
    doc="Theorem 3.4 success indicator: |H| ≥ n/2 and αe(H) ≥ ε·αe",
)
register_metric(
    "half_survival",
    lambda r: 1.0 if r.n_surviving >= r.n_original / 2 else 0.0,
    binary=True,
    doc="indicator of |H| ≥ n/2",
)


# --------------------------------------------------------------------- #
# Axis
# --------------------------------------------------------------------- #

_AXIS_ROOTS = ("graph", "fault", "analysis")


def _normalise_axis_value(v: Any) -> Any:
    """Axis values are JSON data; spec objects are accepted and serialised."""
    if isinstance(v, (GraphSpec, FaultSpec, AnalysisSpec)):
        return v.to_dict()
    try:
        canonical_json(v)
    except (TypeError, ValueError) as exc:
        raise SpecError(
            f"axis value {v!r} is not JSON-serialisable: {exc}"
        ) from exc
    return v


@dataclass(frozen=True, eq=True)
class Axis:
    """One swept dimension: a dotted spec path and the values it takes.

    ``path`` addresses the dict form of a :class:`ScenarioSpec`:
    ``"fault.params.p"`` sets one parameter, ``"graph"`` replaces the whole
    graph spec (values are then graph-spec dicts or :class:`GraphSpec`
    instances).  The scenario ``seed`` and ``label`` are never axes — seeds
    are derived per trial, labels per point.

    >>> axis = Axis("fault.params.p", (0.1, 0.2, 0.4))
    >>> axis.short_name
    'p'
    >>> Axis.from_dict(axis.to_dict()) == axis
    True
    >>> Axis("seed", (1, 2))
    Traceback (most recent call last):
        ...
    repro.errors.SpecError: axis path must start with one of ('graph', 'fault', 'analysis'), got 'seed'
    """

    path: str
    values: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.path or not isinstance(self.path, str):
            raise SpecError(f"axis path must be a non-empty string, got {self.path!r}")
        root = self.path.split(".", 1)[0]
        if root not in _AXIS_ROOTS:
            raise SpecError(
                f"axis path must start with one of {_AXIS_ROOTS}, got {self.path!r}"
            )
        values = tuple(_normalise_axis_value(v) for v in self.values)
        if not values:
            raise SpecError(f"axis {self.path!r} has no values")
        object.__setattr__(self, "values", values)

    @property
    def short_name(self) -> str:
        """Last path segment — the column name used in tables."""
        return self.path.rsplit(".", 1)[-1]

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "values": list(self.values)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Axis":
        if not isinstance(d, Mapping):
            raise SpecError(f"Axis must be a mapping, got {type(d).__name__}")
        unknown = sorted(set(d) - {"path", "values"})
        if unknown:
            raise SpecError(f"Axis dict has unknown key(s) {unknown}")
        if "path" not in d or "values" not in d:
            raise SpecError("Axis dict needs 'path' and 'values'")
        return cls(
            path=d["path"], values=_convert(tuple, d["values"], "Axis.values")
        )

    def __hash__(self) -> int:
        return hash(canonical_json(self.to_dict()))


def _set_path(d: Dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted path inside the scenario dict, creating empty dicts on
    the way down (``from_dict`` validation catches nonsense afterwards)."""
    parts = path.split(".")
    cur: Dict[str, Any] = d
    for p in parts[:-1]:
        nxt = cur.get(p)
        if nxt is None:
            nxt = {}
            cur[p] = nxt
        elif not isinstance(nxt, dict):
            raise SpecError(
                f"axis path {path!r}: segment {p!r} addresses a non-mapping "
                f"value {nxt!r}"
            )
        cur = nxt
    cur[parts[-1]] = value


# --------------------------------------------------------------------- #
# Sampling policy + allocator state machines
# --------------------------------------------------------------------- #

_POLICY_KINDS = ("fixed", "ci_width", "budget", "transition")


class PointView(NamedTuple):
    """The per-point snapshot an :class:`Allocator` decides from.

    ``halfwidth`` is the primary metric's CI half-width (``inf`` until the
    point has enough finite observations), ``mean`` its running mean
    (``nan`` with none), and ``n_finite`` the count of finite observations
    folded so far — the signal that distinguishes "not sampled yet" from
    "sampled but the metric never yields a value" (all-NaN starvation).
    """

    halfwidth: float
    mean: float
    n_finite: int


def _canon_float(name: str, value: Any, *, optional: bool = False) -> Optional[float]:
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"policy {name} must be a number, got {value!r}")
    return float(value)


def _canon_int(name: str, value: Any, *, optional: bool = False) -> Optional[int]:
    if value is None and optional:
        return None
    if isinstance(value, bool):
        raise SpecError(f"policy {name} must be an int, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise SpecError(f"policy {name} must be integral, got {value!r}")
        value = int(value)
    if not isinstance(value, int):
        raise SpecError(f"policy {name} must be an int, got {value!r}")
    return value


@dataclass(frozen=True, eq=True)
class SamplingPolicy:
    """How trials are allocated across grid points.

    * ``fixed`` — every point gets exactly ``SweepSpec.trials`` trials.
    * ``ci_width`` — points start at ``min_trials``, then receive ``chunk``
      more per round while their CI half-width exceeds ``target``, up to
      the per-point cap ``SweepSpec.trials``.  Tight points stop consuming
      budget, which is what frees trials for the noisy ones.
    * ``budget`` — every point gets ``min_trials``, then each round hands
      one ``chunk`` to the point with the widest CI until ``budget`` total
      trials are spent (or, when ``target`` is set, until every point is
      already tight).  Points that spent ``min_trials`` without a single
      finite observation are *starved* — excluded from widest-point
      selection so an all-NaN point cannot swallow the whole budget.
    * ``transition`` — after the bootstrap, the response curve over the
      leading numeric axis is fitted online (logistic / isotonic,
      whichever fits better) and each round's ``chunk`` goes where
      predicted |slope| × CI half-width peaks; flat regions are held to a
      relaxed width target, which is what concentrates trials on the
      percolation transition.

    Every kind is realised by an :class:`Allocator` state machine
    (:meth:`allocator`) whose decisions depend only on the deterministic
    aggregate stream, so interrupted/resumed, serial/parallel and
    local/distributed sweeps allocate identically.

    Numeric fields are canonicalised at construction (``target`` → float,
    ``budget``/``chunk``/``min_trials`` → int, ``confidence`` → float), so
    logically identical policies — e.g. ``budget=100`` vs ``budget=100.0``
    from a JSON client — are equal *and* hash equal, keeping scheduler
    dedup and store reuse sound.

    >>> SamplingPolicy(kind="budget", budget=100) == SamplingPolicy(
    ...     kind="budget", budget=100.0)
    True
    >>> hash(SamplingPolicy(kind="budget", budget=100)) == hash(
    ...     SamplingPolicy(kind="budget", budget=100.0))
    True
    """

    kind: str = "fixed"
    target: Optional[float] = None
    confidence: float = 0.95
    chunk: int = 8
    min_trials: int = 4
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _POLICY_KINDS:
            raise SpecError(
                f"policy kind must be one of {_POLICY_KINDS}, got {self.kind!r}"
            )
        # Canonicalise *before* hashing ever sees the fields: to_dict feeds
        # the content hash, so int/float spellings of the same policy must
        # collapse to one representation (the eq/hash contract).
        object.__setattr__(
            self, "target", _canon_float("target", self.target, optional=True)
        )
        object.__setattr__(
            self, "confidence", _canon_float("confidence", self.confidence)
        )
        object.__setattr__(self, "chunk", _canon_int("chunk", self.chunk))
        object.__setattr__(
            self, "min_trials", _canon_int("min_trials", self.min_trials)
        )
        object.__setattr__(
            self, "budget", _canon_int("budget", self.budget, optional=True)
        )
        if not 0.0 < self.confidence < 1.0:
            raise SpecError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.chunk < 1:
            raise SpecError(f"chunk must be >= 1, got {self.chunk}")
        if self.min_trials < 1:
            raise SpecError(f"min_trials must be >= 1, got {self.min_trials}")
        if self.kind in ("ci_width", "transition"):
            if self.target is None:
                raise SpecError(
                    f"{self.kind} policy needs a positive 'target'"
                )
        if self.kind == "budget":
            if self.budget is None or self.budget < 1:
                raise SpecError("budget policy needs a positive 'budget'")
        if self.budget is not None and self.budget < 1:
            raise SpecError(f"budget must be >= 1, got {self.budget}")
        if self.target is not None and not self.target > 0.0:
            raise SpecError(f"target must be positive, got {self.target}")

    # -- allocation ----------------------------------------------------- #

    def allocator(self, points: Sequence["SweepPoint"] = ()) -> "Allocator":
        """Build this policy's :class:`Allocator` state machine.

        ``points`` is the expanded grid (:meth:`SweepSpec.points`); the
        ``transition`` kind reads the leading numeric axis values from it.
        An empty request list terminates the sweep:

        >>> def views(*halfwidths):
        ...     return [PointView(h, mean=math.nan, n_finite=1) for h in halfwidths]
        >>> fixed = SamplingPolicy().allocator()         # every point: `trials`
        >>> fixed.next_requests(views(), [0, 0, 0], max_trials=4)
        [(0, 4), (1, 4), (2, 4)]
        >>> adaptive = SamplingPolicy(kind="ci_width", target=0.05,
        ...                           min_trials=2, chunk=8).allocator()
        >>> adaptive.next_requests(views(0.01, 0.2), [2, 2], max_trials=10)
        [(1, 8)]
        >>> adaptive.next_requests(views(0.01, 0.04), [2, 10], max_trials=10)
        []
        """
        cls = _ALLOCATORS[self.kind]
        return cls(self, points)

    # -- serialisation -------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "target": self.target,
            "confidence": self.confidence,
            "chunk": self.chunk,
            "min_trials": self.min_trials,
            "budget": self.budget,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SamplingPolicy":
        if not isinstance(d, Mapping):
            raise SpecError(
                f"SamplingPolicy must be a mapping, got {type(d).__name__}"
            )
        allowed = {"kind", "target", "confidence", "chunk", "min_trials", "budget"}
        unknown = sorted(set(d) - allowed)
        if unknown:
            raise SpecError(f"SamplingPolicy dict has unknown key(s) {unknown}")
        # Raw values pass straight through: __post_init__ canonicalises, so
        # int/float JSON spellings land on identical field values (and
        # therefore identical content hashes).
        return cls(
            kind=d.get("kind", "fixed"),
            target=d.get("target"),
            confidence=d.get("confidence", 0.95),
            chunk=d.get("chunk", 8),
            min_trials=d.get("min_trials", 4),
            budget=d.get("budget"),
        )

    def __hash__(self) -> int:
        return hash(canonical_json(self.to_dict()))


class Allocator:
    """Base of the per-kind allocation state machines.

    One allocator instance drives one sweep execution: every round the
    driver hands it the current :class:`PointView` snapshots plus the
    per-point allocation counts, and it answers with ``(point index,
    extra trials)`` requests (empty = the sweep is complete).  Decisions —
    including any internal state such as a fitted curve — must be a
    pure function of the deterministic aggregate stream, never of
    wall-clock, worker count or completion order; that is what keeps
    ``workers=1`` vs ``N``, fresh vs resumed, and local vs distributed
    executions allocating (and therefore fingerprinting) identically.
    """

    kind = "base"

    def __init__(
        self, policy: SamplingPolicy, points: Sequence["SweepPoint"] = ()
    ) -> None:
        self.policy = policy
        self.points = tuple(points)

    def next_requests(
        self,
        views: Sequence[PointView],
        allocated: Sequence[int],
        max_trials: int,
    ) -> List[Tuple[int, int]]:
        raise NotImplementedError

    def state(self) -> Dict[str, Any]:
        """JSON-safe introspection payload (the service status surface)."""
        return {"kind": self.kind}

    # -- shared helpers -------------------------------------------------- #

    def _remaining(self, allocated: Sequence[int]) -> Optional[int]:
        if self.policy.budget is None:
            return None
        return self.policy.budget - sum(allocated)

    def _bootstrap(
        self, allocated: Sequence[int], max_trials: int
    ) -> List[Tuple[int, int]]:
        """Give every never-sampled point ``min_trials`` (budget-capped)."""
        first = min(self.policy.min_trials, max_trials)
        remaining = self._remaining(allocated)
        requests: List[Tuple[int, int]] = []
        for i, a in enumerate(allocated):
            if a != 0:
                continue
            give = first if remaining is None else min(first, remaining)
            if give <= 0:
                break
            requests.append((i, give))
            if remaining is not None:
                remaining -= give
        return requests


class _FixedAllocator(Allocator):
    kind = "fixed"

    def next_requests(self, views, allocated, max_trials):
        return [
            (i, max_trials - a) for i, a in enumerate(allocated) if a < max_trials
        ]


class _CIWidthAllocator(Allocator):
    kind = "ci_width"

    def next_requests(self, views, allocated, max_trials):
        policy = self.policy
        first = min(policy.min_trials, max_trials)
        requests: List[Tuple[int, int]] = []
        for i, a in enumerate(allocated):
            if a == 0:
                requests.append((i, first))
            elif views[i].halfwidth > policy.target and a < max_trials:
                requests.append((i, min(policy.chunk, max_trials - a)))
        return requests


class _BudgetAllocator(Allocator):
    kind = "budget"

    def _starved(self, view: PointView, allocated: int) -> bool:
        """Spent the bootstrap without one finite observation: the metric
        is undefined at this point, so its half-width stays ``inf``
        forever and sampling it further is pure waste."""
        return allocated >= self.policy.min_trials and view.n_finite == 0

    def next_requests(self, views, allocated, max_trials):
        policy = self.policy
        remaining = self._remaining(allocated)
        assert remaining is not None  # budget kind validates budget
        if remaining <= 0:
            return []
        if all(a == 0 for a in allocated):
            return self._bootstrap(allocated, max_trials)
        candidates = [
            i for i in range(len(allocated))
            if not self._starved(views[i], allocated[i])
        ]
        if not candidates:
            return []
        if policy.target is not None and all(
            views[i].halfwidth <= policy.target for i in candidates
        ):
            return []
        widest = max(candidates, key=lambda i: (views[i].halfwidth, -i))
        return [(widest, min(policy.chunk, remaining))]


class _TransitionAllocator(Allocator):
    """Curve-learning allocation for transition-shaped responses.

    Each post-bootstrap round refits the primary-metric means over the
    leading numeric axis — logistic (:func:`repro.util.stats.fit_logistic`)
    vs isotonic (:func:`repro.util.stats.fit_isotonic`), whichever has the
    lower weighted SSE — and hands one ``chunk`` to the eligible point
    where predicted |slope| × CI half-width peaks.  A point's effective
    width target is *relaxed* along two axes of indifference:

    * relative flatness — a point whose slope is small compared to the
      curve's maximum is a plateau; its target stretches quadratically up
      to ``(1 + RELAX) × target``;
    * grid resolution — where the fitted curve moves by ``Δy = |slope| ×
      Δx`` across one grid step, a CI tighter than that movement cannot
      sharpen the curve's *position*, so the target also stretches to
      ``|slope| × Δx`` (capped at the same ``(1 + RELAX)`` ceiling).

    Steep points (normalised slope ≥ ``STEEP``) must additionally reach
    ``2 × min_trials`` before their width test counts: a bootstrap-sized
    sample inside the transition band routinely reports a deceptively
    tight interval around a badly-placed mean.  Together these rules
    concentrate trials on the percolation transition and stop everywhere
    else near the bootstrap floor, which is what reproduces γ(p) within
    CI at a fraction of the trials.  The fit consumes only aggregate
    means/halfwidths, so the allocation sequence is a pure function of
    the fold stream.
    """

    kind = "transition"

    #: Ceiling of both relaxations: no point's effective width target
    #: exceeds ``target * (1 + RELAX)``.
    RELAX = 3.0
    #: Normalised-slope threshold above which a point is "steep" and owes
    #: the ``2 × min_trials`` sample floor.
    STEEP = 0.5

    def __init__(self, policy, points=()):
        super().__init__(policy, points)
        self._xs = _leading_numeric_axis(points)
        self._fit: Optional[str] = None  # introspection: last fit chosen

    def _xvals(self, n: int) -> List[float]:
        # Driven without (or past) the declared grid — e.g. straight through
        # next_requests in tests — fall back to index coordinates.
        if len(self._xs) >= n:
            return self._xs
        return [float(i) for i in range(n)]

    def _slopes(self, views, active: List[int]) -> Dict[int, float]:
        if len(active) < 2:
            return {i: 0.0 for i in active}
        xvals = self._xvals(len(views))
        order = sorted(active, key=lambda i: (xvals[i], i))
        xs = [xvals[i] for i in order]
        ys = [views[i].mean for i in order]
        weights = [float(views[i].n_finite) for i in order]

        def sse(fitted: Sequence[float]) -> float:
            return sum(
                w * (f - y) ** 2 for f, y, w in zip(fitted, ys, weights)
            )

        inc = fit_isotonic(ys, weights, increasing=True)
        dec = fit_isotonic(ys, weights, increasing=False)
        iso = inc if sse(inc) <= sse(dec) else dec
        iso_sse = sse(iso)
        fitted, slopes_at = iso, None
        self._fit = "isotonic"
        if len(set(xs)) >= 3:
            try:
                params = fit_logistic(xs, ys, weights)
            except Exception:  # degenerate geometry: keep the isotonic fit
                params = None
            if params is not None:
                log_fitted = [logistic_value(params, x) for x in xs]
                if sse(log_fitted) < iso_sse:
                    fitted = log_fitted
                    slopes_at = [logistic_slope(params, x) for x in xs]
                    self._fit = "logistic"
        slopes: Dict[int, float] = {}
        m = len(order)
        for j, i in enumerate(order):
            if slopes_at is not None:
                slopes[i] = slopes_at[j]
                continue
            lo = max(j - 1, 0)
            hi = min(j + 1, m - 1)
            dx = xs[hi] - xs[lo]
            slopes[i] = (fitted[hi] - fitted[lo]) / dx if dx > 0 else 0.0
        return slopes

    def _grid_step(self, xvals: Sequence[float], active: List[int]) -> float:
        """Median gap between adjacent distinct active x's (0 if < 2)."""
        xs = sorted({xvals[i] for i in active})
        if len(xs) < 2:
            return 0.0
        gaps = sorted(b - a for a, b in zip(xs, xs[1:]))
        return gaps[len(gaps) // 2]

    def next_requests(self, views, allocated, max_trials):
        policy = self.policy
        if any(a == 0 for a in allocated):
            return self._bootstrap(allocated, max_trials)
        remaining = self._remaining(allocated)
        if remaining is not None and remaining <= 0:
            return []
        active = [i for i in range(len(allocated)) if views[i].n_finite > 0]
        if not active:
            return []
        slopes = self._slopes(views, active)
        s_max = max(abs(slopes[i]) for i in active)
        ceiling = policy.target * (1.0 + self.RELAX)
        dx = self._grid_step(self._xvals(len(views)), active)
        sample_floor = min(2 * policy.min_trials, max_trials)
        best: Optional[Tuple[float, int]] = None
        for i in active:
            if allocated[i] >= max_trials:
                continue
            s_norm = abs(slopes[i]) / s_max if s_max > 0 else 1.0
            flat_tau = policy.target * (
                1.0 + self.RELAX * (1.0 - s_norm) ** 2
            )
            step_tau = min(abs(slopes[i]) * dx, ceiling)
            tau = max(flat_tau, step_tau)
            hw = views[i].halfwidth
            underfed = (
                s_max > 0
                and s_norm >= self.STEEP
                and allocated[i] < sample_floor
            )
            if hw <= tau and not underfed:
                continue
            # inf half-width (a point without an interval yet) outranks
            # everything; otherwise slope-weighted width, floored so a
            # perfectly flat-but-wide point can still win.
            score = math.inf if math.isinf(hw) else (s_norm + 1e-3) * hw
            if best is None or (score, -i) > (best[0], -best[1]):
                best = (score, i)
        if best is None:
            return []
        i = best[1]
        give = min(policy.chunk, max_trials - allocated[i])
        if remaining is not None:
            give = min(give, remaining)
        return [] if give <= 0 else [(i, give)]

    def state(self):
        return {"kind": self.kind, "fit": self._fit}


def _leading_numeric_axis(points: Sequence["SweepPoint"]) -> List[float]:
    """Each point's coordinate on the first all-numeric axis (the curve's
    x-values); falls back to the point index when no axis qualifies."""
    if points:
        n_axes = len(points[0].coords)
        for pos in range(n_axes):
            values = [p.coords[pos][1] for p in points]
            if all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values
            ):
                return [float(v) for v in values]
    return [float(i) for i in range(len(points))]


_ALLOCATORS: Dict[str, type] = {
    "fixed": _FixedAllocator,
    "ci_width": _CIWidthAllocator,
    "budget": _BudgetAllocator,
    "transition": _TransitionAllocator,
}


# --------------------------------------------------------------------- #
# SweepSpec
# --------------------------------------------------------------------- #

_SEED_POLICIES = ("scenario", "fault")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: its index, axis coordinates and seedless scenario."""

    index: int
    coords: Tuple[Tuple[str, Any], ...]  # (axis path, value) in axis order
    spec: ScenarioSpec
    #: Per-seed-policy memo of the content hash trial seeds are keyed by —
    #: computing it costs a canonical-JSON serialisation, so it is done once
    #: per point, not once per trial (excluded from equality).
    _seed_keys: Dict[str, str] = field(
        default_factory=dict, compare=False, repr=False
    )

    def coord_dict(self) -> Dict[str, Any]:
        return dict(self.coords)


@dataclass(frozen=True, eq=True)
class SweepSpec:
    """A declarative sweep: base scenario × axes × trials × seed policy.

    The grid is the cartesian product of the axes in declaration order
    (last axis varies fastest — row-major).  Expansion is deterministic:
    equal specs expand to the same ordered sequence of work units on every
    machine, which is what makes sweeps cacheable and resumable at trial
    granularity.

    ``trials`` is the per-point trial count for the ``fixed`` policy and
    the per-point *cap* for ``ci_width``; the ``budget`` policy bounds the
    total instead.  ``metrics`` name the aggregated scalars (first one
    drives adaptive allocation); ``seed`` is the sweep-level entropy and
    ``seed_policy`` picks what the per-trial derivation is keyed by
    (``"scenario"``: graph+fault+analysis; ``"fault"``: graph+fault only,
    for ablations that must reuse fault draws across analysis arms).

    >>> from repro.api.specs import (AnalysisSpec, FaultSpec, GraphSpec,
    ...                              ScenarioSpec)
    >>> sweep = SweepSpec(
    ...     base=ScenarioSpec(
    ...         graph=GraphSpec("torus", {"sides": 8, "d": 2}),
    ...         fault=FaultSpec("random_node", {"p": 0.1}),
    ...         analysis=AnalysisSpec(pruner=None, measure_expansion=False),
    ...     ),
    ...     axes=(Axis("fault.params.p", (0.1, 0.3)),),
    ...     trials=4, seed=11, metrics=("gamma",), label="demo",
    ... )
    >>> sweep.n_points
    2
    >>> [p.spec.label for p in sweep.points()]
    ['demo:p=0.1', 'demo:p=0.3']
    >>> point = sweep.points()[0]
    >>> sweep.trial_seed(point, 0) == sweep.trial_seed(point, 0)  # pure function
    True
    >>> sweep.trial_seed(point, 0) != sweep.trial_seed(point, 1)
    True
    >>> SweepSpec.from_json(sweep.to_json()) == sweep
    True
    """

    base: ScenarioSpec
    axes: Tuple[Axis, ...] = ()
    trials: int = 1
    seed: int = 0
    seed_policy: str = "scenario"
    metrics: Tuple[str, ...] = ("gamma",)
    policy: SamplingPolicy = field(default_factory=SamplingPolicy)
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.base, ScenarioSpec):
            raise SpecError("SweepSpec.base must be a ScenarioSpec")
        if self.base.seed is not None:
            raise SpecError(
                "SweepSpec.base must not carry a seed — per-trial seeds are "
                "derived from SweepSpec.seed (set that instead)"
            )
        axes = tuple(
            a if isinstance(a, Axis) else Axis.from_dict(a)
            for a in _convert(tuple, self.axes, "SweepSpec.axes")
        )
        seen = set()
        for a in axes:
            if a.path in seen:
                raise SpecError(f"duplicate axis path {a.path!r}")
            seen.add(a.path)
        object.__setattr__(self, "axes", axes)
        if (
            isinstance(self.trials, bool)
            or not isinstance(self.trials, int)
            or self.trials < 1
        ):
            raise SpecError(f"trials must be a positive int, got {self.trials!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise SpecError(f"sweep seed must be an int, got {self.seed!r}")
        if self.seed_policy not in _SEED_POLICIES:
            raise SpecError(
                f"seed_policy must be one of {_SEED_POLICIES}, got "
                f"{self.seed_policy!r}"
            )
        metrics = _convert(tuple, self.metrics, "SweepSpec.metrics")
        if not metrics:
            raise SpecError("SweepSpec needs at least one metric")
        for m in metrics:
            if not isinstance(m, str) or m not in METRICS:
                raise SpecError(
                    f"unknown metric {m!r}; registered: {sorted(METRICS)}"
                )
        # A repeated name would fold every trial into the same aggregate
        # twice, halving the variance the adaptive policies stop on.
        repeated = sorted({m for m in metrics if metrics.count(m) > 1})
        if repeated:
            raise SpecError(f"repeated metric name(s) {repeated}")
        object.__setattr__(self, "metrics", metrics)
        if not isinstance(self.policy, SamplingPolicy):
            raise SpecError("SweepSpec.policy must be a SamplingPolicy")

    # -- grid expansion ------------------------------------------------- #

    @property
    def n_points(self) -> int:
        out = 1
        for a in self.axes:
            out *= len(a.values)
        return out

    def points(self) -> List[SweepPoint]:
        """The grid, expanded deterministically (row-major axis product)."""
        base_dict = self.base.to_dict()
        points: List[SweepPoint] = []
        value_lists = [a.values for a in self.axes]
        for index, combo in enumerate(itertools.product(*value_lists)):
            d = _deep_copy_json(base_dict)
            coords = tuple(
                (a.path, v) for a, v in zip(self.axes, combo)
            )
            for path, v in coords:
                _set_path(d, path, _deep_copy_json(v))
            label = self.point_label(coords)
            d["label"] = label
            d["seed"] = None
            spec = ScenarioSpec.from_dict(d)
            points.append(SweepPoint(index=index, coords=coords, spec=spec))
        return points

    def point_label(self, coords: Tuple[Tuple[str, Any], ...]) -> str:
        parts = [self.label or self.base.label or "sweep"]
        parts += [f"{p.rsplit('.', 1)[-1]}={_label_value(v)}" for p, v in coords]
        return ":".join(parts)

    # -- trial seeds ----------------------------------------------------- #

    def _seed_key(self, point: SweepPoint) -> str:
        """Content hash the trial-seed derivation is keyed by (memoised)."""
        cached = point._seed_keys.get(self.seed_policy)
        if cached is not None:
            return cached
        if self.seed_policy == "fault":
            payload = {
                "graph": point.spec.graph.to_dict(),
                "fault": (
                    point.spec.fault.to_dict()
                    if point.spec.fault is not None
                    else None
                ),
            }
        else:
            payload = {
                "graph": point.spec.graph.to_dict(),
                "fault": (
                    point.spec.fault.to_dict()
                    if point.spec.fault is not None
                    else None
                ),
                "analysis": point.spec.analysis.to_dict(),
            }
        key = hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]
        point._seed_keys[self.seed_policy] = key
        return key

    def trial_seed(self, point: SweepPoint, trial: int) -> int:
        """The run seed of trial ``trial`` at ``point``.

        Derived from ``SeedSequence(entropy=sweep seed,
        spawn_key=(point content hash, point index, trial))`` — the keyed
        equivalent of ``SeedSequence.spawn`` — so the stream depends only
        on sweep seed, point identity and trial index: identical for
        ``workers=1`` vs ``N`` and for fresh vs resumed sweeps.  The point
        *index* (itself a pure function of the spec) is part of the key so
        that two grid points with identical coordinates — e.g. clamped
        probability levels that collide — are independent Monte-Carlo
        replicas rather than bit-identical copies reported as independent.
        """
        if trial < 0:
            raise SpecError(f"trial index must be >= 0, got {trial}")
        h = int(self._seed_key(point), 16)
        seq = np.random.SeedSequence(
            entropy=self.seed,
            spawn_key=(h & 0xFFFFFFFF, (h >> 32) & 0xFFFFFFFF, point.index, trial),
        )
        return int(seq.generate_state(1, dtype=np.uint64)[0])

    def trial_spec(self, point: SweepPoint, trial: int) -> ScenarioSpec:
        """The concrete runnable scenario of one ``(point, trial)`` unit."""
        return point.spec.with_seed(self.trial_seed(point, trial))

    def expand(self) -> Iterator[Tuple[int, int, ScenarioSpec]]:
        """All fixed-allocation work units ``(point index, trial, spec)`` in
        deterministic order (points row-major, trials inner)."""
        for point in self.points():
            for t in range(self.trials):
                yield point.index, t, self.trial_spec(point, t)

    # -- serialisation -------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "axes": [a.to_dict() for a in self.axes],
            "trials": self.trials,
            "seed": self.seed,
            "seed_policy": self.seed_policy,
            "metrics": list(self.metrics),
            "policy": self.policy.to_dict(),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SweepSpec":
        if not isinstance(d, Mapping):
            raise SpecError(f"SweepSpec must be a mapping, got {type(d).__name__}")
        allowed = {
            "base", "axes", "trials", "seed", "seed_policy", "metrics",
            "policy", "label",
        }
        unknown = sorted(set(d) - allowed)
        if unknown:
            raise SpecError(f"SweepSpec dict has unknown key(s) {unknown}")
        if "base" not in d:
            raise SpecError("SweepSpec dict is missing required key 'base'")
        return cls(
            base=ScenarioSpec.from_dict(d["base"]),
            axes=d.get("axes", ()),
            trials=_convert(int, d.get("trials", 1), "SweepSpec.trials"),
            seed=_convert(int, d.get("seed", 0), "SweepSpec.seed"),
            seed_policy=str(d.get("seed_policy", "scenario")),
            metrics=d.get("metrics", ("gamma",)),
            policy=SamplingPolicy.from_dict(d.get("policy", {})),
            label=str(d.get("label", "")),
        )

    def to_json(self, **kwargs: Any) -> str:
        import json

        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "SweepSpec":
        import json

        try:
            d = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid sweep JSON: {exc}") from exc
        return cls.from_dict(d)

    def hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()[:16]

    def __hash__(self) -> int:
        return hash(canonical_json(self.to_dict()))


def _deep_copy_json(v: Any) -> Any:
    if isinstance(v, dict):
        return {k: _deep_copy_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_deep_copy_json(x) for x in v]
    return v


def _label_value(v: Any) -> str:
    if isinstance(v, dict):
        return hashlib.sha256(canonical_json(v).encode()).hexdigest()[:6]
    if isinstance(v, float):
        return f"{v:g}"
    if isinstance(v, (list, tuple)):
        return "x".join(_label_value(x) for x in v)
    return str(v)


# --------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------- #

_QUANTILES = (0.1, 0.5, 0.9)


@dataclass(frozen=True)
class PointStats:
    """Streaming summary of one metric at one grid point."""

    metric: str
    n: int
    mean: float
    std: float
    ci_lo: float
    ci_hi: float
    halfwidth: float
    interval: str  # "normal" | "wilson" | "none"
    minimum: float
    maximum: float
    p10: float
    p50: float
    p90: float
    n_skipped: int

    def to_dict(self) -> Dict[str, Any]:
        def _num(x: float) -> Optional[float]:
            return None if (x != x or math.isinf(x)) else x

        return {
            "metric": self.metric,
            "n": self.n,
            "mean": _num(self.mean),
            "std": _num(self.std),
            "ci_lo": _num(self.ci_lo),
            "ci_hi": _num(self.ci_hi),
            "halfwidth": _num(self.halfwidth),
            "interval": self.interval,
            "min": _num(self.minimum),
            "max": _num(self.maximum),
            "p10": _num(self.p10),
            "p50": _num(self.p50),
            "p90": _num(self.p90),
            "n_skipped": self.n_skipped,
        }


class PointAggregate:
    """Online per-point aggregation across all requested metrics."""

    def __init__(self, metrics: Sequence[str], confidence: float) -> None:
        self.metrics = tuple(metrics)
        self.confidence = confidence
        self._stats = {m: OnlineStats() for m in self.metrics}
        self._quant = {
            m: {p: P2Quantile(p) for p in _QUANTILES} for m in self.metrics
        }
        self._successes = {m: 0 for m in self.metrics}
        self._skipped = {m: 0 for m in self.metrics}

    def push(self, result: RunResult) -> None:
        for m in self.metrics:
            value = METRICS[m].fn(result)
            if value is None or value != value:
                self._skipped[m] += 1
                continue
            value = float(value)
            self._stats[m].push(value)
            for sketch in self._quant[m].values():
                sketch.push(value)
            if METRICS[m].binary and value >= 0.5:
                self._successes[m] += 1

    def halfwidth(self, metric: Optional[str] = None) -> float:
        """CI half-width of a metric (default: the primary allocation one)."""
        m = metric if metric is not None else self.metrics[0]
        stats = self._stats[m]
        if stats.count == 0:
            return math.inf
        if METRICS[m].binary:
            lo, hi = wilson_interval(
                self._successes[m], stats.count, self.confidence
            )
            return (hi - lo) / 2.0
        return stats.halfwidth(self.confidence)

    def mean(self, metric: Optional[str] = None) -> float:
        """Running mean of a metric (default: the primary allocation one);
        ``nan`` until the point has a finite observation."""
        m = metric if metric is not None else self.metrics[0]
        stats = self._stats[m]
        return stats.mean if stats.count else math.nan

    def n_finite(self, metric: Optional[str] = None) -> int:
        """Count of finite observations folded for a metric so far."""
        m = metric if metric is not None else self.metrics[0]
        return self._stats[m].count

    def point_stats(self, metric: str) -> PointStats:
        stats = self._stats[metric]
        n = stats.count
        if n == 0:
            lo = hi = half = math.nan
            kind = "none"
        elif METRICS[metric].binary:
            lo, hi = wilson_interval(self._successes[metric], n, self.confidence)
            half = (hi - lo) / 2.0
            kind = "wilson"
        else:
            lo, hi = stats.interval(self.confidence)
            half = stats.halfwidth(self.confidence)
            kind = "normal"
        quant = self._quant[metric]
        return PointStats(
            metric=metric,
            n=n,
            mean=stats.mean if n else math.nan,
            std=stats.std,
            ci_lo=lo,
            ci_hi=hi,
            halfwidth=half,
            interval=kind,
            minimum=stats.minimum if n else math.nan,
            maximum=stats.maximum if n else math.nan,
            p10=quant[0.1].value,
            p50=quant[0.5].value,
            p90=quant[0.9].value,
            n_skipped=self._skipped[metric],
        )


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PointSummary:
    """Everything the sweep learned about one grid point."""

    index: int
    coords: Tuple[Tuple[str, Any], ...]
    label: str
    n_trials: int
    stats: Dict[str, PointStats]
    trial_fingerprints: Tuple[str, ...]
    results: Optional[Tuple[RunResult, ...]] = None

    def coord_dict(self) -> Dict[str, Any]:
        return dict(self.coords)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "coords": [[p, v] for p, v in self.coords],
            "label": self.label,
            "n_trials": self.n_trials,
            "stats": {m: s.to_dict() for m, s in self.stats.items()},
            "trial_fingerprints": list(self.trial_fingerprints),
        }


@dataclass(frozen=True)
class SweepResult:
    """Aggregated outcome of one executed sweep."""

    sweep: SweepSpec
    points: Tuple[PointSummary, ...]
    total_trials: int
    rounds: int

    @property
    def primary_metric(self) -> str:
        return self.sweep.metrics[0]

    def fingerprint(self) -> str:
        """Content hash over the sweep identity and every trial fingerprint
        (in allocation order) — wall-clock free, so fresh vs resumed and
        serial vs parallel executions of the same sweep compare equal."""
        payload = {
            "sweep": self.sweep.hash(),
            "trials": [list(p.trial_fingerprints) for p in self.points],
        }
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]

    def rows(self) -> List[Dict[str, Any]]:
        """Table rows: axis coordinates + per-metric summaries."""
        out: List[Dict[str, Any]] = []
        primary = self.primary_metric
        ci_label = f"ci{round(self.sweep.policy.confidence * 100):g}"
        for p in self.points:
            row: Dict[str, Any] = {}
            for path, value in p.coords:
                row[path.rsplit(".", 1)[-1]] = (
                    _label_value(value) if isinstance(value, (dict, list)) else value
                )
            stats = p.stats[primary]
            row["trials"] = p.n_trials
            row[f"{primary}_mean"] = _round(stats.mean)
            row[f"{primary}_std"] = _round(stats.std)
            row[ci_label] = (
                f"[{stats.ci_lo:.4f}, {stats.ci_hi:.4f}]"
                if stats.ci_lo == stats.ci_lo and not math.isinf(stats.ci_lo)
                else "n/a"
            )
            for m in self.sweep.metrics[1:]:
                row[f"{m}_mean"] = _round(p.stats[m].mean)
            out.append(row)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": self.sweep.to_dict(),
            "sweep_hash": self.sweep.hash(),
            "fingerprint": self.fingerprint(),
            "total_trials": self.total_trials,
            "rounds": self.rounds,
            "points": [p.to_dict() for p in self.points],
        }


def _round(x: float, nd: int = 4) -> Any:
    return round(x, nd) if x == x else "n/a"


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #


def execute_units(
    sess: "Session",  # noqa: F821
    units: List[Tuple[int, int]],
    specs: List[ScenarioSpec],
) -> List[RunResult]:
    """Run one allocation round's work units, in unit order.

    Units arrive grouped contiguously by point (that is how allocation
    builds them), and all trials of one point share (graph, fault,
    analysis) by construction.  The path is derived from the units alone:
    point groups sharing a :func:`repro.batch.engine.stack_key` (same
    graph + analysis) are *stacked* — when the stack holds at least 2
    trials, all of them are evaluated as one
    :meth:`Session.run_points_batched` call, so a multi-point grid over
    one graph pays graph resolution and kernel setup once per round
    instead of once per point.  Everything else — unbatchable points and
    a lone single-trial point — is dispatched as one scalar
    :meth:`Session.run_iter` call (so process fan-out still covers the
    whole scalar remainder).  The two paths are bit-identical, so
    aggregation and fingerprints cannot observe the choice.
    """
    from ..batch import engine as _batch_engine  # late: batch builds on api

    out: List[Optional[RunResult]] = [None] * len(units)
    scalar_positions: List[int] = []
    stacks: Dict[str, List[List[int]]] = {}
    by_point = itertools.groupby(range(len(units)), key=lambda k: units[k][0])
    for _, positions in by_point:
        group = list(positions)
        key = _batch_engine.stack_key(specs[group[0]])
        if key is None:
            scalar_positions.extend(group)
        else:
            stacks.setdefault(key, []).append(group)
    for groups in stacks.values():
        if sum(len(g) for g in groups) < 2:
            scalar_positions.extend(groups[0])
            continue
        for group, group_results in zip(
            groups,
            sess.run_points_batched([[specs[p] for p in g] for g in groups]),
        ):
            for pos, result in zip(group, group_results):
                out[pos] = result
    if scalar_positions:
        scalar_positions.sort()
        for pos, result in zip(
            scalar_positions,
            sess.run_iter([specs[p] for p in scalar_positions]),
        ):
            out[pos] = result
    return out  # type: ignore[return-value]  # every slot is filled


class SweepDriver:
    """The deterministic allocation-round state machine of one sweep.

    This is :func:`run_sweep` with the *execution* cut out: the driver owns
    the grid, the per-point online aggregates, the sampling-policy loop and
    the fingerprint bookkeeping, while the caller decides how each round's
    work units actually run — inline through a :class:`Session`
    (:func:`run_sweep`) or fanned out over service worker processes
    (:mod:`repro.service.scheduler`).  Both callers therefore share one
    definition of "what runs next" and "how results aggregate", which is
    what makes a distributed sweep's fingerprint bit-identical to a local
    one *by construction* rather than by parallel reimplementation.

    Protocol::

        driver = SweepDriver(sweep)
        while True:
            requests = driver.next_round()      # [(point, start, n), ...]
            if not requests:
                break
            for point, start, n in requests:    # execute any way you like,
                for t in range(start, start + n):
                    driver.fold(point, t, run(sweep.trial_spec(...)))
        result = driver.result()

    The one rule the caller must keep: ``fold`` results in *request order*
    (points in the order ``next_round`` returned them, trials ascending
    within each request) before calling ``next_round`` again.  Allocation
    decisions read the aggregates, so feeding them in a different order
    would let adaptive policies diverge between executors.
    """

    def __init__(self, sweep: SweepSpec, *, keep_results: bool = False) -> None:
        self.sweep = sweep
        self.points = sweep.points()
        self.keep_results = keep_results
        self._allocator = sweep.policy.allocator(self.points)
        self._aggs = [
            PointAggregate(sweep.metrics, sweep.policy.confidence)
            for _ in self.points
        ]
        self._allocated = [0] * len(self.points)
        self._fingerprints: List[List[str]] = [[] for _ in self.points]
        self._collected: List[List[RunResult]] = [[] for _ in self.points]
        #: Trials folded so far / allocation rounds issued so far.
        self.total = 0
        self.rounds = 0
        self._done = False

    # -- the policy loop ------------------------------------------------- #

    def _views(self) -> List[PointView]:
        return [
            PointView(
                halfwidth=agg.halfwidth(),
                mean=agg.mean(),
                n_finite=agg.n_finite(),
            )
            for agg in self._aggs
        ]

    def next_round(self) -> List[Tuple[int, int, int]]:
        """Ask the sampling policy's allocator for the next round's work.

        Returns ``(point index, first trial index, n trials)`` requests —
        empty when the sweep is complete (the driver then flips to
        :attr:`done`).  Trial indices advance monotonically per point, so a
        request is exactly the argument set of
        :meth:`SweepSpec.trial_spec` calls the caller must execute.
        """
        if self._done:
            return []
        requests = self._allocator.next_requests(
            self._views(), list(self._allocated), self.sweep.trials
        )
        if not requests:
            self._done = True
            return []
        self.rounds += 1
        out: List[Tuple[int, int, int]] = []
        for i, n_new in requests:
            out.append((i, self._allocated[i], n_new))
            self._allocated[i] += n_new
        return out

    def fold(self, point_index: int, trial: int, result: RunResult) -> None:
        """Fold one completed trial into the aggregates (in request order)."""
        self._aggs[point_index].push(result)
        self._fingerprints[point_index].append(result.fingerprint())
        self.total += 1
        if self.keep_results:
            self._collected[point_index].append(result)

    @property
    def done(self) -> bool:
        """True once :meth:`next_round` has returned an empty allocation."""
        return self._done

    # -- introspection (the service's status surface) -------------------- #

    @property
    def allocated(self) -> Tuple[int, ...]:
        return tuple(self._allocated)

    def allocator_state(self) -> Dict[str, Any]:
        """The allocator's JSON-safe introspection payload (the transition
        fit choice, …) for the service status."""
        return self._allocator.state()

    def point_snapshots(self) -> List[Dict[str, Any]]:
        """Live per-point state: coordinates, progress and current stats —
        the payload behind ``GET /sweeps/{id}`` while a sweep is running."""
        folded = [len(f) for f in self._fingerprints]
        return [
            {
                "index": p.index,
                "label": p.spec.label,
                "coords": [[path, v] for path, v in p.coords],
                "allocated": self._allocated[p.index],
                "completed": folded[p.index],
                "stats": {
                    m: self._aggs[p.index].point_stats(m).to_dict()
                    for m in self.sweep.metrics
                },
            }
            for p in self.points
        ]

    def result(self) -> SweepResult:
        """The aggregated :class:`SweepResult` (valid once :attr:`done`)."""
        summaries = []
        for p in self.points:
            summaries.append(
                PointSummary(
                    index=p.index,
                    coords=p.coords,
                    label=p.spec.label,
                    n_trials=self._allocated[p.index],
                    stats={
                        m: self._aggs[p.index].point_stats(m)
                        for m in self.sweep.metrics
                    },
                    trial_fingerprints=tuple(self._fingerprints[p.index]),
                    results=(
                        tuple(self._collected[p.index])
                        if self.keep_results
                        else None
                    ),
                )
            )
        summaries = tuple(summaries)
        return SweepResult(
            sweep=self.sweep,
            points=summaries,
            total_trials=self.total,
            rounds=self.rounds,
        )


def run_sweep(
    sweep: SweepSpec,
    session: Optional["Session"] = None,  # noqa: F821 — late import below
    *,
    keep_results: bool = False,
    on_result: Optional[Callable[[int, int, RunResult], None]] = None,
    on_round: Optional[Callable[[int, int, int], None]] = None,
) -> SweepResult:
    """Execute a sweep through a session, aggregating results as they stream.

    Work proceeds in allocation rounds: the sampling policy requests
    ``(point, extra trials)`` batches, the corresponding trial scenarios are
    dispatched through :func:`execute_units` (store hits are served
    without execution — this is what makes interrupted sweeps resume at
    trial granularity), and every completed result is folded into the
    per-point online aggregates *before* the next allocation decision.
    Multi-trial groups whose scenarios the batched engine supports
    (:func:`repro.batch.engine.supports` — measure-only analyses with
    vectorisable fault models) are evaluated as one ``(T × n)`` mask-matrix
    batch instead of T scalar engine calls; per-trial records, store
    entries and the sweep fingerprint are bit-identical either way (the
    differential suite enforces this against :func:`repro.testing.scalar_sweep`).

    ``on_result(point_index, trial_index, result)`` fires per completed
    trial; ``on_round(round_number, units_this_round, total_so_far)`` fires
    before each round executes.  Results are fed to the aggregators in
    deterministic (point, trial) order, so aggregate values — and the
    allocation decisions derived from them — do not depend on worker count
    or execution path.
    """
    from .session import Session  # late: session builds on the engine

    sess = session if session is not None else Session()
    driver = SweepDriver(sweep, keep_results=keep_results)
    points = driver.points
    while True:
        requests = driver.next_round()
        if not requests:
            break
        units: List[Tuple[int, int]] = [
            (i, t) for i, start, n in requests for t in range(start, start + n)
        ]
        if on_round is not None:
            on_round(driver.rounds, len(units), driver.total)
        specs = [sweep.trial_spec(points[i], t) for i, t in units]
        for (i, t), result in zip(units, execute_units(sess, units, specs)):
            driver.fold(i, t, result)
            if on_result is not None:
                on_result(i, t, result)
    return driver.result()

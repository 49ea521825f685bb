"""Frozen, serialisable scenario specs — configuration as data.

A fault-tolerance scenario is fully described by four small records:

* :class:`GraphSpec` — which generator builds the network and with what
  parameters (parameters may nest further ``GraphSpec``s, e.g. the base
  graph of a chain replacement);
* :class:`FaultSpec` — which fault model hits it;
* :class:`AnalysisSpec` — how the survivors are pruned and measured;
* :class:`ScenarioSpec` — the three above plus the run seed and a label.

Every spec round-trips losslessly through plain dicts (``to_dict`` /
``from_dict``) and JSON (``to_json`` / ``from_json``), so scenarios can be
stored, diffed, shipped over the wire and replayed bit-for-bit.  The
execution side lives in :mod:`repro.api.engine`; registries resolving the
string names live in :mod:`repro.api.registry`.

:class:`RunResult` is the structured outcome of one executed scenario, with
provenance (spec hash, seed, per-stage timings).  Its :meth:`~RunResult.fingerprint`
excludes wall-clock timings, so two runs of the same ``(spec, seed)`` pair
compare equal even though they never take exactly the same time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import SpecError

__all__ = [
    "GraphSpec",
    "FaultSpec",
    "AnalysisSpec",
    "ScenarioSpec",
    "RunResult",
    "canonical_json",
    "spec_hash",
]

#: Dict-form marker for a nested graph spec inside generator params.
_GRAPH_KEY = "__graph__"


def _check_mapping(value: Any, what: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise SpecError(f"{what} must be a mapping, got {type(value).__name__}")
    out: Dict[str, Any] = {}
    for k, v in value.items():
        if not isinstance(k, str):
            raise SpecError(f"{what} keys must be strings, got {k!r}")
        out[k] = v
    return out


def _check_param_value(v: Any, what: str, *, allow_graph: bool = True) -> Any:
    """Normalise/validate one param value: JSON scalars, lists, string-keyed
    dicts, and (as a direct param value only) nested :class:`GraphSpec`s.

    Anything else — arbitrary objects, concrete graphs, generators — is
    rejected here rather than being silently stringified into a hash that
    would differ between processes.
    """
    if v is None or isinstance(v, (bool, str, int, float)):
        return v
    if isinstance(v, GraphSpec):
        if not allow_graph:
            raise SpecError(
                f"{what}: a nested GraphSpec is only allowed as a direct "
                "parameter value of GraphSpec.params (not in fault/finder "
                "params or inside lists/dicts)"
            )
        return v
    if isinstance(v, (list, tuple)):
        return [
            _check_param_value(x, what, allow_graph=False) for x in v
        ]
    if isinstance(v, Mapping):
        return {
            k: _check_param_value(x, what, allow_graph=False)
            for k, x in _check_mapping(v, what).items()
        }
    # numpy scalars and arrays: normalise to the python equivalent
    tolist = getattr(v, "tolist", None)
    if callable(tolist):
        try:
            return _check_param_value(tolist(), what, allow_graph=False)
        except (TypeError, ValueError):
            pass
    raise SpecError(
        f"{what}: value {v!r} of type {type(v).__name__} is not "
        "JSON-serialisable (allowed: None/bool/int/float/str, lists, "
        "string-keyed dicts, nested GraphSpec)"
    )


def _check_params(value: Any, what: str, *, allow_graph: bool = True) -> Dict[str, Any]:
    # Only GraphSpec.params can carry nested GraphSpecs — they are the only
    # params _params_to_dict knows how to serialise.
    return {
        k: _check_param_value(v, what, allow_graph=allow_graph)
        for k, v in _check_mapping(value, what).items()
    }


def _require(d: Mapping[str, Any], key: str, what: str) -> Any:
    if key not in d:
        raise SpecError(f"{what} dict is missing required key {key!r}")
    return d[key]


def _convert(convert: Callable[[Any], Any], value: Any, what: str) -> Any:
    """``convert(value)``, with a wrong-typed JSON field (``null``, a list
    where a number belongs, a bare number where a list belongs) reported
    as a :class:`SpecError` rather than a ``TypeError``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(
            f"{what} has the wrong type: {value!r} ({type(value).__name__})"
        ) from exc


def _reject_unknown(d: Mapping[str, Any], allowed: Tuple[str, ...], what: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise SpecError(
            f"{what} dict has unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _params_to_dict(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Serialise params, expanding nested :class:`GraphSpec` values."""
    out: Dict[str, Any] = {}
    for k, v in params.items():
        out[k] = {_GRAPH_KEY: v.to_dict()} if isinstance(v, GraphSpec) else v
    return out


def _params_from_dict(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`_params_to_dict`."""
    out: Dict[str, Any] = {}
    for k, v in params.items():
        if isinstance(v, Mapping) and set(v) == {_GRAPH_KEY}:
            out[k] = GraphSpec.from_dict(v[_GRAPH_KEY])
        else:
            out[k] = v
    return out


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance.

    No ``default=`` fallback: anything non-JSON must fail loudly rather
    than hash by ``repr`` (which embeds memory addresses and would break
    the cross-process stability of :func:`spec_hash`).

    >>> canonical_json({"b": 1, "a": [True, None]})
    '{"a":[true,null],"b":1}'
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_hash(spec: "GraphSpec | FaultSpec | AnalysisSpec | ScenarioSpec") -> str:
    """Short content hash identifying a spec (stable across processes).

    >>> a = spec_hash(GraphSpec("torus", {"sides": 8, "d": 2}))
    >>> b = spec_hash(GraphSpec("torus", {"d": 2, "sides": 8}))
    >>> a == b          # parameter order never matters
    True
    >>> len(a)
    16
    """
    return hashlib.sha256(canonical_json(spec.to_dict()).encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# GraphSpec
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=True)
class GraphSpec:
    """A network described by registry name + keyword parameters.

    ``params`` values must be JSON-serialisable scalars/lists or nested
    :class:`GraphSpec` instances (used e.g. for ``chain_replacement``'s
    ``base`` graph).  Random generators take an explicit integer ``seed``
    param — graph identity is part of the spec, never of the run seed.

    >>> spec = GraphSpec("torus", {"sides": 8, "d": 2})
    >>> spec.to_dict()
    {'generator': 'torus', 'params': {'sides': 8, 'd': 2}}
    >>> GraphSpec.from_dict(spec.to_dict()) == spec
    True
    >>> nested = GraphSpec("chain_replacement", {"base": spec, "k": 4})
    >>> GraphSpec.from_dict(nested.to_dict()).params["base"] == spec
    True
    """

    generator: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.generator or not isinstance(self.generator, str):
            raise SpecError(f"generator must be a non-empty string, got {self.generator!r}")
        object.__setattr__(self, "params", _check_params(self.params, "GraphSpec.params"))

    def to_dict(self) -> Dict[str, Any]:
        return {"generator": self.generator, "params": _params_to_dict(self.params)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "GraphSpec":
        d = _check_mapping(d, "GraphSpec")
        _reject_unknown(d, ("generator", "params"), "GraphSpec")
        return cls(
            generator=_require(d, "generator", "GraphSpec"),
            params=_params_from_dict(_check_mapping(d.get("params"), "GraphSpec.params")),
        )

    def key(self) -> str:
        """Content hash — the engine's baseline-cache key component."""
        return spec_hash(self)

    def __hash__(self) -> int:
        # The generated field-tuple hash would crash on the params dict;
        # hash by content instead, consistent with __eq__.
        return hash(canonical_json(self.to_dict()))


# --------------------------------------------------------------------- #
# FaultSpec
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=True)
class FaultSpec:
    """A fault model by registry name + parameters.

    Stochastic models (e.g. ``random_node``) draw from the scenario's run
    seed unless ``params`` pins an explicit ``seed`` of its own.

    >>> fault = FaultSpec("random_node", {"p": 0.05})
    >>> FaultSpec.from_dict(fault.to_dict()) == fault
    True
    """

    model: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.model or not isinstance(self.model, str):
            raise SpecError(f"model must be a non-empty string, got {self.model!r}")
        object.__setattr__(
            self, "params",
            _check_params(self.params, "FaultSpec.params", allow_graph=False),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"model": self.model, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultSpec":
        d = _check_mapping(d, "FaultSpec")
        _reject_unknown(d, ("model", "params"), "FaultSpec")
        return cls(
            model=_require(d, "model", "FaultSpec"),
            params=_check_mapping(d.get("params"), "FaultSpec.params"),
        )

    def __hash__(self) -> int:
        return hash(canonical_json(self.to_dict()))


# --------------------------------------------------------------------- #
# AnalysisSpec
# --------------------------------------------------------------------- #

_MODES = ("node", "edge")


@dataclass(frozen=True, eq=True)
class AnalysisSpec:
    """How the faulty network is pruned and measured.

    ``mode`` selects node vs edge expansion (the paper's Theorem 2.1 vs 3.4
    pipelines).  ``pruner`` names a registered pruning algorithm, or ``None``
    to skip pruning (percolation-style measurements on the raw faulty
    network).  ``epsilon=None`` uses the analyzer's theorem defaults.

    >>> spec = AnalysisSpec(mode="edge", pruner="prune2", epsilon=0.25)
    >>> AnalysisSpec.from_dict(spec.to_dict()) == spec
    True
    >>> AnalysisSpec(mode="sideways")
    Traceback (most recent call last):
        ...
    repro.errors.SpecError: mode must be one of ('node', 'edge'), got 'sideways'
    """

    mode: str = "node"
    pruner: Optional[str] = "prune"
    epsilon: Optional[float] = None
    finder: Optional[str] = None
    finder_params: Dict[str, Any] = field(default_factory=dict)
    exact_threshold: int = 14
    #: Skip the (possibly expensive) expansion estimate on the survivors;
    #: component statistics are always reported.
    measure_expansion: bool = True

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise SpecError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.epsilon is not None and not (
            0 < _convert(float, self.epsilon, "AnalysisSpec.epsilon") <= 1
        ):
            raise SpecError(f"epsilon must be in (0, 1], got {self.epsilon}")
        object.__setattr__(
            self, "finder_params",
            _check_params(
                self.finder_params, "AnalysisSpec.finder_params", allow_graph=False
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "pruner": self.pruner,
            "epsilon": self.epsilon,
            "finder": self.finder,
            "finder_params": dict(self.finder_params),
            "exact_threshold": self.exact_threshold,
            "measure_expansion": self.measure_expansion,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AnalysisSpec":
        d = _check_mapping(d, "AnalysisSpec")
        _reject_unknown(
            d,
            ("mode", "pruner", "epsilon", "finder", "finder_params",
             "exact_threshold", "measure_expansion"),
            "AnalysisSpec",
        )
        return cls(
            mode=d.get("mode", "node"),
            pruner=d.get("pruner", "prune"),
            epsilon=d.get("epsilon"),
            finder=d.get("finder"),
            finder_params=_check_mapping(
                d.get("finder_params"), "AnalysisSpec.finder_params"
            ),
            exact_threshold=_convert(
                int, d.get("exact_threshold", 14), "AnalysisSpec.exact_threshold"
            ),
            measure_expansion=bool(d.get("measure_expansion", True)),
        )

    def __hash__(self) -> int:
        return hash(canonical_json(self.to_dict()))


# --------------------------------------------------------------------- #
# ScenarioSpec
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=True)
class ScenarioSpec:
    """One complete runnable scenario: graph × fault × analysis × seed.

    >>> spec = ScenarioSpec(
    ...     graph=GraphSpec("torus", {"sides": 8, "d": 2}),
    ...     fault=FaultSpec("random_node", {"p": 0.1}),
    ...     seed=7,
    ... )
    >>> ScenarioSpec.from_json(spec.to_json()) == spec
    True
    >>> spec.with_seed(8).seed
    8
    >>> spec.hash() == spec.with_seed(8).hash()  # the seed is part of identity
    False
    """

    graph: GraphSpec
    fault: Optional[FaultSpec] = None
    analysis: AnalysisSpec = field(default_factory=AnalysisSpec)
    seed: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.graph, GraphSpec):
            raise SpecError("ScenarioSpec.graph must be a GraphSpec")
        if self.fault is not None and not isinstance(self.fault, FaultSpec):
            raise SpecError("ScenarioSpec.fault must be a FaultSpec or None")
        if not isinstance(self.analysis, AnalysisSpec):
            raise SpecError("ScenarioSpec.analysis must be an AnalysisSpec")
        if self.seed is not None and not isinstance(self.seed, int):
            raise SpecError(f"seed must be an int or None, got {self.seed!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "graph": self.graph.to_dict(),
            "fault": self.fault.to_dict() if self.fault is not None else None,
            "analysis": self.analysis.to_dict(),
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ScenarioSpec":
        d = _check_mapping(d, "ScenarioSpec")
        _reject_unknown(d, ("graph", "fault", "analysis", "seed", "label"),
                        "ScenarioSpec")
        fault = d.get("fault")
        analysis = d.get("analysis")
        return cls(
            graph=GraphSpec.from_dict(_require(d, "graph", "ScenarioSpec")),
            fault=FaultSpec.from_dict(fault) if fault is not None else None,
            analysis=(
                AnalysisSpec.from_dict(analysis)
                if analysis is not None
                else AnalysisSpec()
            ),
            seed=d.get("seed"),
            label=str(d.get("label", "")),
        )

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioSpec":
        try:
            d = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(d)

    def hash(self) -> str:
        # Memoised (specs are frozen): every trial is hashed at least
        # twice — engine packaging and store keying — at sweep scale.
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = spec_hash(self)
            object.__setattr__(self, "_hash", cached)
        return cached

    def with_seed(self, seed: Optional[int]) -> "ScenarioSpec":
        return replace(self, seed=seed)

    def __hash__(self) -> int:
        return hash(canonical_json(self.to_dict()))


# --------------------------------------------------------------------- #
# RunResult
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=True)
class RunResult:
    """Structured outcome of one executed scenario, with provenance.

    All fields are plain JSON types so results serialise as easily as the
    specs that produced them.  ``surviving_nodes`` are node ids of the
    *original* network, so post-processing can rebuild ``H`` via
    ``graph.subgraph(...)`` without re-running the pipeline.
    """

    spec: ScenarioSpec
    spec_hash: str
    seed: Optional[int]
    label: str
    graph_name: str
    n_original: int
    mode: str
    # fault stage
    fault_kind: str
    f: int
    fault_fraction: float
    faulty_components: int
    largest_faulty_component: int
    # prune + measurement stage
    n_surviving: int
    surviving_fraction: float
    n_culled_sets: int
    prune_iterations: int
    baseline_expansion: float
    baseline_exact: bool
    surviving_expansion: Optional[float]
    expansion_retention: Optional[float]
    surviving_nodes: Tuple[int, ...]
    epsilon: float
    # wall-clock provenance (excluded from fingerprint/equality-of-record)
    timings: Dict[str, float] = field(default_factory=dict, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        # Built field by field (declaration order) rather than through
        # dataclasses.asdict: asdict deep-copies recursively, which at
        # sweep scale made result serialisation — on the path of every
        # fingerprint and store append — the dominant per-trial cost.
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "label": self.label,
            "graph_name": self.graph_name,
            "n_original": self.n_original,
            "mode": self.mode,
            "fault_kind": self.fault_kind,
            "f": self.f,
            "fault_fraction": self.fault_fraction,
            "faulty_components": self.faulty_components,
            "largest_faulty_component": self.largest_faulty_component,
            "n_surviving": self.n_surviving,
            "surviving_fraction": self.surviving_fraction,
            "n_culled_sets": self.n_culled_sets,
            "prune_iterations": self.prune_iterations,
            "baseline_expansion": self.baseline_expansion,
            "baseline_exact": self.baseline_exact,
            "surviving_expansion": self.surviving_expansion,
            "expansion_retention": self.expansion_retention,
            "surviving_nodes": list(self.surviving_nodes),
            "epsilon": self.epsilon,
            "timings": dict(self.timings),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunResult":
        d = dict(_check_mapping(d, "RunResult"))
        d["spec"] = ScenarioSpec.from_dict(_require(d, "spec", "RunResult"))
        d["surviving_nodes"] = tuple(int(i) for i in d.get("surviving_nodes", ()))
        d["timings"] = _check_mapping(d.get("timings"), "RunResult.timings")
        try:
            return cls(**d)
        except TypeError as exc:
            raise SpecError(f"bad RunResult dict: {exc}") from exc

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "RunResult":
        return cls.from_dict(json.loads(payload))

    def fingerprint(self) -> str:
        """Content hash of everything *except* wall-clock timings —
        identical ``(spec, seed)`` runs produce identical fingerprints.

        Memoised: the record is frozen and timings are excluded, so the
        hash is a pure function of the content (the sweep layer and the
        store both fingerprint every result).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        d = self.to_dict()
        d.pop("timings", None)
        value = hashlib.sha256(canonical_json(d).encode()).hexdigest()[:16]
        object.__setattr__(self, "_fingerprint", value)
        return value

    def row(self) -> Dict[str, Any]:
        """Flat row-dict for :func:`repro.report.tables.format_row_dicts`."""
        return {
            "label": self.label or self.spec_hash,
            "graph": self.graph_name,
            "n": self.n_original,
            "fault": self.fault_kind,
            "f": self.f,
            "H_size": self.n_surviving,
            "H_frac": round(self.surviving_fraction, 4),
            "alpha_G": round(self.baseline_expansion, 4),
            "alpha_H": (
                round(self.surviving_expansion, 4)
                if self.surviving_expansion is not None
                else "n/a"
            ),
            "retention": (
                round(self.expansion_retention, 4)
                if self.expansion_retention is not None
                else "n/a"
            ),
            "sec": round(sum(self.timings.values()), 3),
        }

"""The batched trial engine: many ``(spec, seed)`` trials, one graph pass.

:func:`run_trials` is the batched counterpart of
:func:`repro.api.engine.run` for the *measure-only* analysis family
(``pruner=None``, ``measure_expansion=False`` — the percolation-style
scenarios behind γ curves and disintegration sweeps).  Instead of
building one induced subgraph per trial and BFS-ing it, the whole trial
set becomes a ``(T, n)`` alive-mask matrix evaluated by the mask-parallel
kernels in :mod:`repro.graphs.traversal`.

Equivalence contract: for every supported spec list,
``run_trials(specs)[i] == repro.api.engine.run(specs[i])`` as
:class:`~repro.api.specs.RunResult` records, with the same
:meth:`~repro.api.specs.RunResult.fingerprint`.  No supported analysis
reads the fault-free expansion, so no record here carries one.  The
contract is property-tested in ``tests/batch/test_differential.py``;
anything the contract cannot cover — unregistered fault models, pruning
analyses, survivor expansion estimates — is rejected by :func:`supports`
and stays on the scalar path.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from ..errors import SpecError
from ..graphs.graph import Graph
from ..graphs.traversal import batched_component_stats, batched_connected_components
# baseline_expansion is unused here, but perfbench/bench_layers.py wraps it by name
from ..api.engine import baseline_expansion, default_epsilon, resolve_graph  # noqa: F401
from ..api.registry import FAULT_MODELS
from ..api.specs import RunResult, ScenarioSpec, bitmap_text, canonical_json
from .faults import MASK_SAMPLERS, batched_fault_masks

__all__ = ["supports", "stack_key", "run_trials", "run_points"]

def supports(spec: ScenarioSpec) -> bool:
    """Whether the batched engine can execute ``spec`` scalar-equivalently.

    Three conditions, checked syntactically (no graph resolution):

    * no pruner — the prune loop is adaptive per trial and not batchable;
    * no survivor expansion estimate — sweep-cut/Fiedler estimates are
      per-subgraph algorithms;
    * the fault model (if any) has a registered mask sampler
      (:data:`~repro.batch.faults.MASK_SAMPLERS`).
    """
    if not isinstance(spec, ScenarioSpec):
        return False
    if spec.analysis.pruner is not None or spec.analysis.measure_expansion:
        return False
    if spec.fault is None:
        return True
    return spec.fault.model in MASK_SAMPLERS


def stack_key(spec: ScenarioSpec) -> Optional[str]:
    """Cross-point stacking compatibility key, or ``None`` if unbatchable.

    Two grid points whose specs return the same key share a graph and an
    analysis configuration, so their trials can be evaluated as rows of
    one stacked alive-mask tensor by :func:`run_points` (fault models and
    parameters may differ — masks are sampled per point).  The key is the
    canonical JSON of the (graph, analysis) sub-specs.
    """
    if not supports(spec):
        return None
    return canonical_json(
        {"graph": spec.graph.to_dict(), "analysis": spec.analysis.to_dict()}
    )


def _check_homogeneous(specs: List[ScenarioSpec]) -> ScenarioSpec:
    head = specs[0]
    for spec in specs:
        if not isinstance(spec, ScenarioSpec):
            raise SpecError(
                f"run_trials takes ScenarioSpecs, got {type(spec).__name__}"
            )
        if (
            spec.graph != head.graph
            or spec.fault != head.fault
            or spec.analysis != head.analysis
        ):
            raise SpecError(
                "run_trials needs trials sharing one (graph, fault, analysis) "
                "— only seeds and labels may vary across the batch"
            )
    if not supports(head):
        raise SpecError(
            "scenario is not batchable (needs pruner=None, "
            "measure_expansion=False and a mask-sampler fault model); "
            "use the scalar engine"
        )
    return head


def run_trials(
    specs: List[ScenarioSpec], *, graph: Optional[Graph] = None
) -> List[RunResult]:
    """Execute homogeneous trials as one batched evaluation.

    ``specs`` must share graph/fault/analysis and differ only in ``seed``
    (and ``label``); pass ``graph`` to skip re-resolving it.  Results come
    back in input order.

    This is the single-point special case of :func:`run_points`.
    """
    specs = list(specs)
    if not specs:
        return []
    return run_points([specs], graph=graph)[0]


def _group_masks(
    graph: Graph, head: ScenarioSpec, specs: List[ScenarioSpec]
) -> Tuple[np.ndarray, str]:
    """Fault masks for one homogeneous group, exactly as T scalar runs."""
    T = len(specs)
    if head.fault is None:
        return np.zeros((T, graph.n), dtype=bool), "none"
    entry = FAULT_MODELS.get(head.fault.model)
    params = head.fault.params
    if entry.seeded and "seed" not in params:
        seeds: List[Any] = [spec.seed for spec in specs]
    else:
        # the model pins its own seed (or takes none): every trial
        # replays the same draw, exactly like T scalar engine calls
        seeds = [params.get("seed")] * T
    return batched_fault_masks(graph, head.fault.model, params, seeds)


def run_points(
    groups: List[List[ScenarioSpec]], *, graph: Optional[Graph] = None
) -> List[List[RunResult]]:
    """Execute several grid points sharing one graph as stacked batches.

    ``groups`` holds one non-empty spec list per grid point.  Every group
    must be internally homogeneous (the :func:`run_trials` contract) and
    all groups must agree on ``graph`` and ``analysis`` — i.e. share a
    :func:`stack_key`; fault models and parameters may differ per group.

    The graph is resolved once, and all groups' trials are evaluated as
    rows of one stacked ``(ΣT, n)`` alive-mask tensor in one kernel call (the kernel bounds its own memory
    by labelling rows in chunks), so the per-call kernel setup and graph
    resolution are paid once per *graph* instead of once per *point*.
    Masks are sampled per group from the same per-spec seeds the
    per-point path uses, and the kernel is row-independent, so every
    record — and therefore every sweep fingerprint — is bit-identical to
    running :func:`run_trials` per point.

    Returns one result list per group, in input order.
    """
    groups = [list(g) for g in groups]
    if not groups:
        return []
    heads = []
    for g in groups:
        if not g:
            raise SpecError("run_points groups must be non-empty")
        heads.append(_check_homogeneous(g))
    head = heads[0]
    for other in heads[1:]:
        if other.graph != head.graph or other.analysis != head.analysis:
            raise SpecError(
                "run_points needs grid points sharing one (graph, analysis) "
                "— only fault models, seeds and labels may vary across points"
            )
    analysis = head.analysis

    if graph is None:
        graph, _raw = resolve_graph(head.graph)

    epsilon = analysis.epsilon
    if epsilon is None:
        epsilon = default_epsilon(graph, analysis.mode)

    n = graph.n
    masks = []
    kinds = []
    for h, g in zip(heads, groups):
        fault_masks, kind = _group_masks(graph, h, g)
        masks.append(fault_masks)
        kinds.append(kind)
    alive = ~np.vstack(masks) if len(masks) > 1 else ~masks[0]

    labels = batched_connected_components(graph, alive)
    n_components, largest = batched_component_stats(labels)
    n_alive = alive.sum(axis=1, dtype=np.int64)

    # One packbits per stack: row i is trial i's surviving bitmap when bit
    # j is original node j, i.e. on a graph with identity original ids.
    packed = (
        np.packbits(alive, axis=1, bitorder="little")
        if np.array_equal(graph.original_ids, np.arange(n))
        else None
    )

    out: List[List[RunResult]] = [[] for _ in groups]
    row = 0
    for gi, kind in enumerate(kinds):
        for spec in groups[gi]:
            i = row
            row += 1
            f = int(n - n_alive[i])
            surviving = graph.original_ids[alive[i]]
            out[gi].append(
                RunResult(
                    spec=spec,
                    seed=spec.seed,
                    label=spec.label,
                    graph_name=graph.name,
                    n_original=n,
                    mode=analysis.mode,
                    fault_kind=kind,
                    f=f,
                    fault_fraction=float(f / n if n else 0.0),
                    faulty_components=int(n_components[i]),
                    largest_faulty_component=int(largest[i]),
                    n_surviving=int(n_alive[i]),
                    surviving_fraction=float(n_alive[i] / n if n else 0.0),
                    n_culled_sets=0,
                    prune_iterations=0,
                    baseline_expansion=None,
                    surviving_expansion=None,
                    expansion_retention=None,
                    surviving_nodes=tuple(surviving.tolist()),
                    epsilon=float(epsilon),
                ).memoise(
                    surviving=None if packed is None else bitmap_text(packed[i].tobytes())
                )
            )
    return out

"""The session front door: cached, streaming, resumable scenario execution.

A :class:`Session` ties together the three execution subsystems:

* the **engine** (:mod:`repro.api.engine`) — how one scenario is executed;
* an **executor** (:mod:`repro.api.executors`) — how a batch is scheduled
  (serial loop or process pool, one interface);
* an optional **result store** (:mod:`repro.api.store`) — content-addressed
  persistence keyed by scenario hash, so identical scenarios are never
  executed twice, across calls *and* across process lifetimes.

The cache logic leans entirely on the API's determinism contract: a
scenario's randomness comes from explicit seeds inside its specs (graph
identity) plus the scenario ``seed`` (fault draws), and
:func:`~repro.api.engine.resolve_graph` rejects unseeded stochastic
generators.  Identical ``(spec, seed)`` therefore ⇒ identical result, which
is exactly what makes ``spec.hash()`` a sound cache key — a stored result is
bit-for-bit substitutable for a fresh execution.

Three consequences fall out:

* **warm batches short-circuit** — a fully cached batch performs zero
  engine calls, including the baseline phase;
* **interrupted sweeps resume** — each computed batch (a stacked sweep's
  whole stack, or one streamed result) is appended to the store in one
  call the moment it finishes, before any of it is returned or yielded,
  so a crashed or killed sweep restarts from whatever already landed on
  disk;
* **parallelism is invisible** — ``workers=1`` and ``workers=N`` produce
  identical fingerprints, cached or fresh.

:func:`repro.api.engine.run_batch` is a thin wrapper over a default
(storeless) ``Session``; experiments and the CLI build sessions explicitly.
"""

from __future__ import annotations

import itertools
import os
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..errors import SpecError
from ..expansion.estimate import ExpansionEstimate
from ..graphs.graph import Graph
from .executors import make_executor
from .specs import RunResult, ScenarioSpec
from .store import BaselineKey, ResultStore, baseline_key

# The engine import populates the component registries as a side effect, so
# a Session is runnable the moment it is constructed.
from . import engine as _engine

__all__ = ["Session"]

#: How a serve call computes its misses: ``(missing specs, their input
#: positions) ->`` batches of ``(index into missing, result)`` pairs, in
#: any order.  Each batch is stored with one append before any of it is
#: yielded.
_Compute = Callable[
    [List[ScenarioSpec], List[int]], Iterable[List[Tuple[int, RunResult]]]
]


def _validate_specs(specs: Iterable[ScenarioSpec]) -> List[ScenarioSpec]:
    spec_list = list(specs)
    for spec in spec_list:
        if not isinstance(spec, ScenarioSpec):
            raise SpecError(
                f"expected ScenarioSpecs, got {type(spec).__name__}"
            )
    return spec_list


class Session:
    """Execution context with a baseline cache, an executor and (optionally)
    a persistent result store.

    Parameters
    ----------
    store:
        ``None`` (no persistence), a path (a :class:`ResultStore` is opened
        there), or a ready :class:`ResultStore`.
    workers:
        Parallelism degree of the executor: ``1`` = serial,
        ``None``/``0`` = auto-sized process pool, ``N`` = pool of N.
    baseline_cache:
        In-memory fault-free-estimate cache, keyed by
        ``(graph hash, mode, exact_threshold)``.  Pass a shared dict to
        carry estimates across sessions; it is updated in place.
    refresh:
        When true, ignore existing store entries (recompute everything) but
        still write results through — a forced cache rebuild.

    A storeless serial session is the cheapest way to execute specs
    programmatically; identical scenarios are deduplicated per session run
    only when a store is attached:

    >>> from repro.api.specs import FaultSpec, GraphSpec, ScenarioSpec
    >>> session = Session()                        # in-process, no store
    >>> spec = ScenarioSpec(
    ...     graph=GraphSpec("cycle_graph", {"n": 12}),
    ...     fault=FaultSpec("random_node", {"p": 0.2}),
    ...     seed=3,
    ... )
    >>> result = session.run(spec)
    >>> (result.n_original, result.graph_name)
    (12, 'C12')
    >>> session.run(spec).fingerprint() == result.fingerprint()  # deterministic
    True
    >>> (session.hits, session.misses)             # no store → all misses
    (0, 2)
    """

    def __init__(
        self,
        store: Union[None, str, os.PathLike, ResultStore] = None,
        *,
        workers: Optional[int] = 1,
        baseline_cache: Optional[Dict[BaselineKey, ExpansionEstimate]] = None,
        refresh: bool = False,
    ) -> None:
        if store is None or isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store)
        self.executor = make_executor(workers)
        self.refresh = refresh
        self._baselines = baseline_cache if baseline_cache is not None else {}
        #: Scenarios served from the store / actually executed, cumulatively.
        self.hits = 0
        self.misses = 0

    # -- cache plumbing ------------------------------------------------- #

    def lookup(self, spec: ScenarioSpec) -> Optional[RunResult]:
        """The cached result for ``spec`` (refresh mode always misses)."""
        if self.store is None or self.refresh:
            return None
        return self.store.get_result(spec)

    def _ensure_baselines(self, specs: List[ScenarioSpec]) -> None:
        """Resolve the fault-free estimate for every unique baseline key in
        ``specs``: memory cache, then store, then one computation per key
        (fanned out through the executor)."""
        missing: Dict[BaselineKey, ScenarioSpec] = {}
        for spec in specs:
            key = baseline_key(spec)
            if key in self._baselines or key in missing:
                continue
            if self.store is not None and not self.refresh:
                stored = self.store.get_baseline(key)
                if stored is not None:
                    self._baselines[key] = stored
                    continue
            missing[key] = spec
        if not missing:
            return
        estimates = self.executor.map(_engine._baseline_task, list(missing.values()))
        for key, estimate in zip(missing, estimates):
            self._baselines[key] = estimate
            if self.store is not None:
                self.store.put_baseline(key, estimate, replace=self.refresh)

    def _serve(
        self, specs: Iterable[ScenarioSpec], compute: _Compute
    ) -> Iterator[RunResult]:
        """The one lookup → baseline → compute → record loop.

        Validation and the store lookups (so the hit/miss counters too)
        happen now.  The returned iterator yields results in input order,
        each as soon as it and all its predecessors are available: the
        cached prefix first, then — after resolving the misses' baselines
        — ``compute(missing, slots)`` runs on the missing specs and their
        input positions, yielding batches of ``(index into missing,
        result)`` pairs in any order.  Each batch is appended to the store
        with one :meth:`ResultStore.put_results` call the moment it
        arrives, before any of it is yielded.
        """
        spec_list = _validate_specs(specs)
        results = [self.lookup(spec) for spec in spec_list]
        slots = [i for i, result in enumerate(results) if result is None]
        missing = [spec_list[i] for i in slots]
        self.hits += len(results) - len(slots)
        self.misses += len(slots)

        def fill() -> Iterator[RunResult]:
            i = 0
            while i < len(results) and results[i] is not None:
                yield results[i]
                i += 1
            if not missing:
                return
            self._ensure_baselines(missing)
            for batch in compute(missing, slots):
                if self.store is not None:
                    self.store.put_results(result for _, result in batch)
                for k, result in batch:
                    results[slots[k]] = result
                while i < len(results) and results[i] is not None:
                    yield results[i]
                    i += 1

        return fill()

    # -- execution ------------------------------------------------------ #

    def run(self, spec: ScenarioSpec) -> RunResult:
        """Execute (or serve from the store) a single scenario."""
        (result,) = self.run_iter([spec])
        return result

    def run_batch(self, specs: Iterable[ScenarioSpec]) -> List[RunResult]:
        """Execute a batch; results in input order (see :meth:`run_iter`)."""
        return list(self.run_iter(specs))

    def run_iter(self, specs: Iterable[ScenarioSpec]) -> Iterator[RunResult]:
        """Stream results in input order instead of barriering.

        Cached scenarios are served without any execution (a fully warm
        batch performs zero engine calls — no baseline phase either); the
        rest are dispatched through the executor, and every computed result
        is appended to the store *before* it is yielded, so an interrupted
        consumer loses nothing that was yielded.  Closing the iterator
        mid-sweep cancels still-queued scenarios promptly; at most the
        handful in flight at that moment are recomputed on resume.
        """
        return self._serve(
            specs,
            lambda missing, _slots: (
                [pair]
                for pair in self.executor.imap(
                    _engine._run_task,
                    [(spec, self._baselines[baseline_key(spec)]) for spec in missing],
                )
            ),
        )

    def run_trials_batched(self, specs: Iterable[ScenarioSpec]) -> List[RunResult]:
        """Execute one grid point's homogeneous trials through the batched
        engine (:meth:`run_points_batched` with a single group)."""
        return self.run_points_batched([specs])[0]

    def run_points_batched(
        self, groups: Iterable[Iterable[ScenarioSpec]]
    ) -> List[List[RunResult]]:
        """Execute several compatible grid points as stacked batches.

        ``groups`` holds one spec list per grid point, each sharing one
        (graph, fault, analysis) and differing only in seed/label; all
        groups must share a :func:`repro.batch.engine.stack_key` (same
        graph + analysis; fault models may differ).  Store semantics match
        :meth:`run_iter` — cached trials are served without execution — and
        the misses of every group are evaluated by **one**
        :func:`repro.batch.engine.run_points` call stacking them into shared
        mask tensors.  Each record is bit-identical to scalar execution, so
        sweep fingerprints are unchanged.  Returns one result list per
        group, in input order.
        """
        from ..batch import engine as _batch_engine  # late: batch builds on api

        group_lists = [list(g) for g in groups]
        owner = [gi for gi, g in enumerate(group_lists) for _ in g]

        def stacked(
            missing: List[ScenarioSpec], slots: List[int]
        ) -> List[List[Tuple[int, RunResult]]]:
            # slots ascend and groups are contiguous, so each group's
            # misses form one run and the stacked output keeps their order
            runs = [
                [spec for _, spec in run]
                for _, run in itertools.groupby(
                    zip(slots, missing), key=lambda pair: owner[pair[0]]
                )
            ]
            computed = _batch_engine.run_points(
                runs, baseline=self._baselines[baseline_key(missing[0])]
            )
            return [list(enumerate(result for run in computed for result in run))]

        flat = iter(list(self._serve(itertools.chain(*group_lists), stacked)))
        return [list(itertools.islice(flat, len(g))) for g in group_lists]

    # -- conveniences ---------------------------------------------------- #

    def resolve_graph(self, spec) -> Tuple[Graph, Any]:
        """Resolve a :class:`GraphSpec` through the generator registry (the
        session-level alias of :func:`repro.api.engine.resolve_graph`)."""
        return _engine.resolve_graph(spec)

    def stats(self):
        """Store statistics (:class:`~repro.api.store.StoreStats`), or
        ``None`` for a storeless session."""
        return None if self.store is None else self.store.stats()

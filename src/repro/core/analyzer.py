"""`FaultExpansionAnalyzer` — the library's high-level entry point.

Typical use (this is the quickstart example):

    >>> from repro.graphs.generators import torus
    >>> from repro.core import FaultExpansionAnalyzer
    >>> analyzer = FaultExpansionAnalyzer(torus(16, 2))
    >>> report = analyzer.random_faults(p=0.05, seed=7)
    >>> report.surviving_fraction > 0.8
    True

The analyzer is a thin convenience wrapper over the declarative scenario
API (:mod:`repro.api`): it holds a concrete graph, builds
:class:`~repro.api.specs.FaultSpec` records internally, and executes
every analysis through the shared
:func:`repro.api.engine.analyze_graph` pipeline — the same code path
``repro.api.run`` uses for JSON scenarios.  The fault-free expansion is
measured once and cached.
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np

from ..api.engine import (
    analyze_graph,
    apply_fault_spec,
    baseline_expansion,
    default_epsilon,
)
from ..api.specs import FaultSpec
from ..errors import InvalidParameterError
from ..expansion.estimate import ExpansionEstimate
from ..faults.model import FaultScenario, apply_node_faults
from ..graphs.graph import Graph
from ..pruning.cutfinder import CutFinder, default_cut_finder
from ..util.rng import SeedLike
from .report import FaultToleranceReport

__all__ = ["FaultExpansionAnalyzer"]

Mode = Literal["node", "edge"]


class FaultExpansionAnalyzer:
    """Inject faults into a network, prune, and report retained expansion.

    Parameters
    ----------
    graph:
        The fault-free network ``G``.
    mode:
        ``"node"`` uses node expansion + `Prune` (the adversarial-fault
        pipeline, Theorem 2.1); ``"edge"`` uses edge expansion + `Prune2`
        (the random-fault pipeline, Theorem 3.4).
    epsilon:
        Pruning degradation parameter.  Defaults: ``1/2`` for node mode
        (Theorem 2.1 with k = 2) and ``1/(2δ)`` for edge mode (Theorem 3.4's
        admissible maximum).
    finder:
        Cut-search strategy shared by all runs (default: hybrid).
    exact_threshold:
        Below this size expansion estimates are exact.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        mode: Mode = "node",
        epsilon: Optional[float] = None,
        finder: Optional[CutFinder] = None,
        exact_threshold: int = 14,
    ) -> None:
        if graph.n < 2:
            raise InvalidParameterError("analyzer needs at least 2 nodes")
        if mode not in ("node", "edge"):
            raise InvalidParameterError(f"mode must be node/edge, got {mode}")
        self.graph = graph
        self.mode: Mode = mode
        if epsilon is None:
            epsilon = default_epsilon(graph, mode)
        if not 0 < epsilon <= 1:
            raise InvalidParameterError(f"epsilon must be in (0, 1], got {epsilon}")
        self.epsilon = float(epsilon)
        self.finder = finder if finder is not None else default_cut_finder()
        self.exact_threshold = exact_threshold
        self._baseline: Optional[ExpansionEstimate] = None

    # ------------------------------------------------------------------ #

    @property
    def baseline_expansion(self) -> ExpansionEstimate:
        """Fault-free expansion (measured once, cached)."""
        if self._baseline is None:
            self._baseline = baseline_expansion(
                self.graph, self.mode, exact_threshold=self.exact_threshold
            )
        return self._baseline

    # ------------------------------------------------------------------ #

    def random_faults(self, p: float, seed: SeedLike = None) -> FaultToleranceReport:
        """Inject i.i.d. node faults at probability ``p`` and analyse."""
        if isinstance(seed, (int, np.integer)) or seed is None:
            scenario = apply_fault_spec(
                self.graph,
                FaultSpec("random_node", {"p": p}),
                seed=int(seed) if seed is not None else None,
            )
        else:  # Generator / SeedSequence inputs bypass the spec layer
            from ..faults.random_faults import random_node_faults

            scenario = random_node_faults(self.graph, p, seed)
        return self.analyze_scenario(scenario)

    def adversarial_faults(self, faulty_nodes: np.ndarray) -> FaultToleranceReport:
        """Analyse an explicit fault set (e.g. from an attack strategy)."""
        scenario = apply_node_faults(self.graph, faulty_nodes, kind="adversarial")
        return self.analyze_scenario(scenario)

    def sweep(
        self,
        p_values,
        *,
        trials: int = 3,
        seed: SeedLike = None,
    ) -> list[dict]:
        """Fault-probability sweep: mean survivor fraction and expansion
        retention at each ``p`` over ``trials`` independent fault draws.

        Aggregation is online (:class:`~repro.util.stats.OnlineStats` —
        the same streaming pattern as :mod:`repro.api.sweeps`), so memory
        stays constant no matter how many trials a point accumulates.
        Returns row-dicts (render with
        :func:`repro.report.tables.format_row_dicts`), the same shape the
        experiment runners produce.

        For cached, resumable, adaptively-sampled sweeps over *declarative*
        scenarios, build a :class:`repro.api.sweeps.SweepSpec` instead —
        this method is the in-memory convenience for a concrete graph.
        """
        from ..faults.random_faults import random_node_faults
        from ..util.rng import spawn
        from ..util.stats import OnlineStats

        p_list = list(p_values)  # materialise once — generators are one-shot
        rows: list[dict] = []
        rngs = spawn(seed, len(p_list) * trials)
        i = 0
        for p in p_list:
            fractions, retentions = OnlineStats(), OnlineStats()
            for _ in range(trials):
                report = self.analyze_scenario(
                    random_node_faults(self.graph, p, rngs[i])
                )
                i += 1
                fractions.push(report.surviving_fraction)
                retention = report.expansion_retention
                if retention == retention:  # skip NaN (empty H)
                    retentions.push(retention)
            rows.append(
                {
                    "p": p,
                    "trials": trials,
                    "mean_survivor_frac": fractions.mean,
                    "mean_expansion_retention": (
                        retentions.mean if retentions.count else float("nan")
                    ),
                }
            )
        return rows

    def analyze_scenario(self, scenario: FaultScenario) -> FaultToleranceReport:
        """Prune the scenario's surviving network and package the report."""
        if scenario.original is not self.graph and scenario.original != self.graph:
            raise InvalidParameterError("scenario was built on a different graph")
        return analyze_graph(
            self.graph,
            scenario,
            mode=self.mode,
            pruner="prune" if self.mode == "node" else "prune2",
            epsilon=self.epsilon,
            finder=self.finder,
            exact_threshold=self.exact_threshold,
            baseline=self.baseline_expansion,
        )

"""Analysis reports: the structured results the analyzer facade returns.

A :class:`FaultToleranceReport` bundles everything a user wants after
"inject faults, prune, measure": the scenario, the pruned network, the
component structure before/after, expansion estimates, and theory-bound
comparisons.  Rendering routes through the shared renderers in
:mod:`repro.report.tables` — ``render()`` produces the plain-text table
used by the examples and benches, ``to_markdown()`` the report form —
so one stringification rule set covers every output surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from ..expansion.estimate import ExpansionEstimate
from ..faults.model import FaultScenario
from ..graphs.traversal import ComponentSummary
from ..pruning.prune import PruneResult
from ..report.tables import fmt_float, format_table, markdown_table

__all__ = ["FaultToleranceReport"]


@dataclass(frozen=True)
class FaultToleranceReport:
    """Full digest of one fault-injection + pruning analysis."""

    scenario: FaultScenario
    #: None when the analysis reads no baseline (no pruner, no survivor
    #: expansion)
    baseline_expansion: Optional[ExpansionEstimate]
    faulty_components: ComponentSummary
    prune_result: PruneResult
    surviving_expansion: Optional[ExpansionEstimate]
    epsilon: float

    @property
    def n_original(self) -> int:
        return self.scenario.original.n

    @property
    def n_surviving(self) -> int:
        return int(self.prune_result.surviving_local.shape[0])

    @property
    def surviving_fraction(self) -> float:
        """``|H| / n`` relative to the fault-free network."""
        return self.n_surviving / self.n_original if self.n_original else 0.0

    @property
    def expansion_retention(self) -> float:
        """``α(H) / α(G)`` using the point estimates (nan when undefined)."""
        h, g = self.surviving_expansion, self.baseline_expansion
        if h is None or g is None or g.value <= 0:
            return float("nan")
        return h.value / g.value

    def _rows(self) -> List[List[Any]]:
        """The ``(quantity, value)`` pairs every renderer shares."""
        return [
            ["original nodes", self.n_original],
            ["faults", self.scenario.f],
            ["fault fraction", fmt_float(self.scenario.fault_fraction)],
            ["fault kind", self.scenario.kind],
            ["faulty components", self.faulty_components.n_components],
            ["largest faulty component", self.faulty_components.largest_size],
            ["pruned away", self.prune_result.n_culled],
            ["surviving |H|", self.n_surviving],
            ["surviving fraction", fmt_float(self.surviving_fraction)],
            ["baseline expansion", _fmt_estimate(self.baseline_expansion)],
            ["surviving expansion", _fmt_estimate(self.surviving_expansion)],
            ["expansion retention", fmt_float(self.expansion_retention)],
            ["prune threshold", fmt_float(self.prune_result.threshold)],
            ["prune iterations", self.prune_result.iterations],
        ]

    @property
    def _title(self) -> str:
        return f"Fault-tolerance report — {self.scenario.original.name}"

    def render(self) -> str:
        """Multi-line plain-text report."""
        return format_table(["quantity", "value"], self._rows(), title=self._title)

    def to_markdown(self) -> str:
        """The same report as a GitHub pipe table."""
        return markdown_table(["quantity", "value"], self._rows(), title=self._title)


def _fmt_estimate(estimate: Optional[ExpansionEstimate]) -> str:
    return "n/a" if estimate is None else fmt_float(estimate.value)

"""Unit tests for the analyzer's fault-probability sweep API."""

import math

import numpy as np
import pytest

from repro.core import FaultExpansionAnalyzer
from repro.graphs.generators import torus
from repro.report.tables import format_row_dicts


class TestAnalyzerSweep:
    def test_rows_shape(self, small_torus):
        an = FaultExpansionAnalyzer(small_torus)
        rows = an.sweep([0.0, 0.1], trials=2, seed=0)
        assert len(rows) == 2
        assert set(rows[0]) == {
            "p", "trials", "mean_survivor_frac", "mean_expansion_retention",
        }

    def test_zero_p_full_survival(self, small_torus):
        an = FaultExpansionAnalyzer(small_torus)
        rows = an.sweep([0.0], trials=2, seed=1)
        assert rows[0]["mean_survivor_frac"] == 1.0
        assert rows[0]["mean_expansion_retention"] == pytest.approx(1.0)

    def test_survivors_decrease_with_p(self):
        an = FaultExpansionAnalyzer(torus(10, 2))
        rows = an.sweep([0.02, 0.3], trials=3, seed=2)
        assert rows[0]["mean_survivor_frac"] > rows[1]["mean_survivor_frac"]

    def test_deterministic(self, small_torus):
        an = FaultExpansionAnalyzer(small_torus)
        a = an.sweep([0.1], trials=2, seed=3)
        b = an.sweep([0.1], trials=2, seed=3)
        assert a == b

    def test_renders(self, small_torus):
        an = FaultExpansionAnalyzer(small_torus)
        rows = an.sweep([0.05], trials=1, seed=4)
        out = format_row_dicts(rows)
        assert "mean_survivor_frac" in out

    def test_total_collapse_gives_nan_retention(self):
        an = FaultExpansionAnalyzer(torus(4, 2))
        rows = an.sweep([1.0], trials=1, seed=5)
        assert rows[0]["mean_survivor_frac"] == 0.0
        assert math.isnan(rows[0]["mean_expansion_retention"])

"""Unit tests for table rendering."""

import pytest

from repro.report.tables import fmt_float, format_row_dicts, format_table


class TestFmtFloat:
    def test_integers_bare(self):
        assert fmt_float(3.0) == "3"
        assert fmt_float(-2.0) == "-2"

    def test_moderate_fixed(self):
        assert fmt_float(0.5) == "0.5"
        assert "0.123" in fmt_float(0.1235)

    def test_tiny_scientific(self):
        assert "e" in fmt_float(1e-7)

    def test_huge_scientific(self):
        assert "e" in fmt_float(1.5e7)

    def test_nan_inf(self):
        assert fmt_float(float("nan")) == "nan"
        assert fmt_float(float("inf")) == "inf"
        assert fmt_float(float("-inf")) == "-inf"


class TestFormatTable:
    def test_basic_shape(self):
        out = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert "a" in lines[0] and "bb" in lines[0]

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_bool_rendering(self):
        out = format_table(["ok"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out

    def test_column_alignment(self):
        out = format_table(["col"], [[1], [100]])
        rows = out.splitlines()[2:]
        assert len(rows[0]) == len(rows[1])  # right-justified same width


class TestFormatRowDicts:
    def test_round_trip(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]
        out = format_row_dicts(rows)
        assert "a" in out and "b" in out and "4.5" in out

    def test_empty(self):
        assert format_row_dicts([], title="empty") == "empty"
        assert format_row_dicts([]) == ""

"""Unit tests for the canonical table model and renderers."""

import pytest

from repro.report.tables import (
    ExperimentTable,
    StatColumn,
    format_row_dicts,
    markdown_row_dicts,
    markdown_table,
)


def _table(**overrides):
    base = dict(
        experiment="e5",
        title="demo",
        rows=(
            {"graph": "torus", "p": 0.1, "gamma_mean": 0.9, "gamma_ci95": 0.05,
             "trials": 8, "ok": True},
            {"graph": "torus", "p": 0.4, "gamma_mean": 0.2, "gamma_ci95": 0.04,
             "trials": 8, "ok": False},
        ),
        paper_section="§3.1",
        caption="cap",
        key_columns=("graph", "p"),
        stat_columns=(StatColumn("gamma_mean", "gamma_ci95", "trials"),),
        check_columns=("ok",),
        provenance=({"kind": "sweep", "hash": "abc"},),
    )
    base.update(overrides)
    return ExperimentTable(**base)


class TestExperimentTable:
    def test_sequence_protocol(self):
        t = _table()
        assert len(t) == 2
        assert t[0]["graph"] == "torus"
        assert [r["p"] for r in t] == [0.1, 0.4]
        assert t[-1]["ok"] is False

    def test_rows_are_copied(self):
        rows = [{"a": 1}]
        t = ExperimentTable(experiment="e1", title="t", rows=rows)
        rows[0]["a"] = 99
        assert t[0]["a"] == 1

    def test_json_round_trip_preserves_everything(self):
        t = _table()
        back = ExperimentTable.from_json(t.to_json())
        assert back == t
        assert back.stat_columns[0].mean == "gamma_mean"
        assert back.key_columns == ("graph", "p")
        assert list(back[0].keys()) == list(t[0].keys())  # column order

    def test_digest_stable_and_content_sensitive(self):
        t = _table()
        assert t.digest() == _table().digest()
        changed = _table(caption="other")
        assert changed.digest() != t.digest()

    def test_row_key_uses_declared_columns(self):
        t = _table()
        assert t.row_key(t[0]) == "graph=torus|p=0.1"

    def test_row_key_defaults_to_non_stat_columns(self):
        t = _table(key_columns=())
        key = t.row_key(t[0])
        assert "gamma_mean" not in key
        assert "graph=torus" in key and "ok=yes" in key

    def test_checks_counts_booleans(self):
        assert _table().checks() == (1, 2)
        assert _table(check_columns=()).checks() == (0, 0)

    def test_to_text_and_markdown(self):
        t = _table()
        text = t.to_text()
        assert "demo" in text and "gamma_mean" in text
        md = t.to_markdown()
        assert md.splitlines()[0].startswith("| graph |")
        assert "| --- |" in md.splitlines()[1]


class TestMarkdownRenderers:
    def test_markdown_table_escapes_pipes(self):
        md = markdown_table(["a|b"], [["x|y"]])
        assert "a\\|b" in md and "x\\|y" in md

    def test_markdown_row_dicts_matches_format_row_dicts_columns(self):
        rows = [{"x": 1, "y": 2.5}]
        md = markdown_row_dicts(rows)
        txt = format_row_dicts(rows)
        assert "2.5" in md and "2.5" in txt

    def test_markdown_empty(self):
        assert markdown_row_dicts([]) == ""
        assert markdown_row_dicts([], title="T") == "**T**"

    def test_cell_rules_shared(self):
        md = markdown_table(["v"], [[True], [float("nan")], [3.0]])
        assert "yes" in md and "nan" in md and "| 3 |" in md

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError):
            markdown_table(["a", "b"], [[1]])

"""Canonical table model + text/markdown renderers for experiment output.

This module owns *all* tabular formatting in the library.  Three layers:

* cell/stringification rules — :func:`fmt_float` and friends, shared by
  every renderer so plain-text experiment output, Markdown reports and the
  HTML report spell numbers identically;
* renderers — :func:`format_table` / :func:`format_row_dicts` (monospace)
  and :func:`markdown_table` / :func:`markdown_row_dicts` (GitHub pipe
  tables);
* the structured result — :class:`ExperimentTable`, the record every
  experiment runner returns: row-dicts plus the metadata the paper-report
  pipeline needs (title, paper section, which columns carry Monte-Carlo
  statistics, sweep provenance).  It behaves as a read-only sequence of
  rows, so pre-existing consumers that indexed the bare row list keep
  working unchanged.

Only the standard library is used here: the table layer sits below the
spec/engine stack and must be importable from anywhere without cycles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "fmt_float",
    "format_table",
    "format_row_dicts",
    "markdown_table",
    "markdown_row_dicts",
    "experiment_sort_key",
    "StatColumn",
    "ExperimentTable",
]

Row = Dict[str, Any]


def fmt_float(x: float, digits: int = 4) -> str:
    """Format a float compactly: fixed-point for moderate magnitudes,
    scientific for very small/large ones, and integers without a fraction.

    >>> fmt_float(3.0)
    '3'
    >>> fmt_float(0.12345)
    '0.1235'
    >>> fmt_float(1.5e-7)
    '1.5000e-07'
    >>> fmt_float(float("nan"))
    'nan'
    """
    if x != x:  # NaN
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    if x != 0 and (abs(x) < 10 ** (-digits) or abs(x) >= 10**6):
        return f"{x:.{digits}e}"
    if float(x).is_integer():
        return str(int(x))
    return f"{x:.{digits}g}"


def _stringify(cell: Any) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return fmt_float(cell)
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render a monospace table with a header rule.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Row cell sequences; cells are stringified via :func:`fmt_float` rules.
    title:
        Optional title printed above the table.
    """
    str_rows = [[_stringify(c) for c in row] for row in rows]
    ncols = len(headers)
    for r in str_rows:
        if len(r) != ncols:
            raise ValueError(f"row has {len(r)} cells, expected {ncols}")
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in str_rows)) if str_rows else len(headers[j])
        for j in range(ncols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[j]) for j, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(r[j].rjust(widths[j]) for j in range(ncols)))
    return "\n".join(lines)


def format_row_dicts(rows: Sequence[Mapping[str, Any]], *, title: Optional[str] = None) -> str:
    """Render a list of homogeneous dicts as a table (keys of the first row
    define the columns)."""
    if not rows:
        return title or ""
    headers = list(rows[0].keys())
    return format_table(headers, [[row[h] for h in headers] for row in rows], title=title)


def _md_escape(cell: str) -> str:
    return cell.replace("|", "\\|")


def markdown_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render a GitHub-flavoured pipe table (same cell rules as
    :func:`format_table`; pipes inside cells are escaped)."""
    str_rows = [[_md_escape(_stringify(c)) for c in row] for row in rows]
    ncols = len(headers)
    for r in str_rows:
        if len(r) != ncols:
            raise ValueError(f"row has {len(r)} cells, expected {ncols}")
    lines = []
    if title:
        lines.append(f"**{title}**")
        lines.append("")
    lines.append("| " + " | ".join(_md_escape(str(h)) for h in headers) + " |")
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for r in str_rows:
        lines.append("| " + " | ".join(r) + " |")
    return "\n".join(lines)


def markdown_row_dicts(
    rows: Sequence[Mapping[str, Any]], *, title: Optional[str] = None
) -> str:
    """:func:`format_row_dicts`'s Markdown twin."""
    if not rows:
        return f"**{title}**" if title else ""
    headers = list(rows[0].keys())
    return markdown_table(
        headers, [[row[h] for h in headers] for row in rows], title=title
    )


def _canonical(payload: Any) -> str:
    # Cycle-safe twin of repro.api.specs.canonical_json: this module sits
    # below the api package in the import graph (api.engine imports
    # core.report, which renders through here), so it cannot import from
    # it.  Same contract: sorted keys, no whitespace variance, no default=
    # fallback.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def experiment_sort_key(eid: str) -> Tuple[int, str]:
    """Sort key giving e1..e11 numeric order (not lexicographic)."""
    return (len(eid), eid)


# --------------------------------------------------------------------- #
# Structured experiment tables
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StatColumn:
    """Declares that a table column is a Monte-Carlo *estimate*.

    ``mean`` names the column holding the point estimate; ``halfwidth``
    names the column holding its confidence-interval half-width (same
    confidence level across the table); ``count`` optionally names the
    trials column.  The paper-report differ treats two runs of the same
    row as compatible when the declared intervals overlap — columns not
    covered by a :class:`StatColumn` are seed-dependent point values and
    are reported informationally, never flagged.
    """

    mean: str
    halfwidth: str
    count: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"mean": self.mean, "halfwidth": self.halfwidth, "count": self.count}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "StatColumn":
        return cls(
            mean=str(d["mean"]),
            halfwidth=str(d["halfwidth"]),
            count=str(d.get("count", "")),
        )


@dataclass(frozen=True)
class ExperimentTable(Sequence):
    """The structured outcome of one paper experiment.

    A read-only sequence of row-dicts (``table[0]["graph"]``, ``len(table)``
    and iteration all work, so legacy consumers of the bare row list are
    unaffected) plus the metadata the report pipeline renders and diffs:

    * ``experiment`` / ``title`` / ``paper_section`` / ``caption`` — what
      the table shows and which claim of the paper it regenerates;
    * ``key_columns`` — the columns identifying a row across runs (the
      differ's join key);
    * ``stat_columns`` — which columns are Monte-Carlo estimates with CI
      half-widths (see :class:`StatColumn`);
    * ``check_columns`` — boolean pass/fail columns (theory-bound checks);
    * ``provenance`` — one record per sweep/spec executed: content hashes,
      seed policy, trial counts.  Everything is JSON round-trippable.
    """

    experiment: str
    title: str
    rows: Tuple[Row, ...]
    paper_section: str = ""
    caption: str = ""
    key_columns: Tuple[str, ...] = ()
    stat_columns: Tuple[StatColumn, ...] = ()
    check_columns: Tuple[str, ...] = ()
    provenance: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(dict(r) for r in self.rows))
        object.__setattr__(self, "key_columns", tuple(self.key_columns))
        object.__setattr__(
            self,
            "stat_columns",
            tuple(
                s if isinstance(s, StatColumn) else StatColumn.from_dict(s)
                for s in self.stat_columns
            ),
        )
        object.__setattr__(self, "check_columns", tuple(self.check_columns))
        object.__setattr__(
            self, "provenance", tuple(dict(p) for p in self.provenance)
        )

    # -- sequence protocol (rows) --------------------------------------- #

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):  # type: ignore[override]
        return self.rows[index]

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    # -- derived views --------------------------------------------------- #

    @property
    def columns(self) -> List[str]:
        """Column names (keys of the first row; empty table → no columns)."""
        return list(self.rows[0].keys()) if self.rows else []

    def row_key(self, row: Mapping[str, Any]) -> str:
        """Stable identity of a row across runs: the ``key_columns`` values
        (all non-stat columns when none are declared)."""
        cols = self.key_columns
        if not cols:
            stat = {c for s in self.stat_columns for c in (s.mean, s.halfwidth, s.count)}
            cols = tuple(c for c in self.columns if c not in stat)
        return "|".join(f"{c}={_stringify(row.get(c, ''))}" for c in cols)

    def checks(self) -> Tuple[int, int]:
        """``(passed, total)`` over all boolean check cells in the table."""
        passed = total = 0
        for row in self.rows:
            for col in self.check_columns:
                if col in row:
                    total += 1
                    passed += bool(row[col])
        return passed, total

    # -- renderers ------------------------------------------------------- #

    def to_text(self, *, title: Optional[str] = None) -> str:
        """Monospace rendering (the CLI's stdout format)."""
        return format_row_dicts(list(self.rows), title=title or self.title)

    def to_markdown(self, *, title: Optional[str] = None) -> str:
        """GitHub pipe-table rendering (the report format)."""
        return markdown_row_dicts(list(self.rows), title=title)

    # -- serialisation --------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "paper_section": self.paper_section,
            "caption": self.caption,
            "key_columns": list(self.key_columns),
            "stat_columns": [s.to_dict() for s in self.stat_columns],
            "check_columns": list(self.check_columns),
            "provenance": [dict(p) for p in self.provenance],
            "rows": [dict(r) for r in self.rows],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ExperimentTable":
        return cls(
            experiment=str(d["experiment"]),
            title=str(d.get("title", "")),
            rows=tuple(d.get("rows", ())),
            paper_section=str(d.get("paper_section", "")),
            caption=str(d.get("caption", "")),
            key_columns=tuple(d.get("key_columns", ())),
            stat_columns=tuple(
                StatColumn.from_dict(s) for s in d.get("stat_columns", ())
            ),
            check_columns=tuple(d.get("check_columns", ())),
            provenance=tuple(d.get("provenance", ())),
        )

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "ExperimentTable":
        return cls.from_dict(json.loads(payload))

    def digest(self) -> str:
        """Content hash of the table (canonical JSON, wall-clock free as
        long as the rows themselves carry no timings)."""
        return hashlib.sha256(_canonical(self.to_dict()).encode()).hexdigest()[:16]

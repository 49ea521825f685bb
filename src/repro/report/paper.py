"""One-command paper artifact: run the e1–e14 suite, emit a report directory.

:func:`run_paper` drives every experiment through **one shared**
:class:`~repro.api.session.Session` whose store makes the whole pipeline
incremental at two granularities:

* *scenario granularity* — the sweep-based experiments resume per trial
  through the session's result store (PR 2/3 machinery);
* *table granularity* — each finished
  :class:`~repro.report.tables.ExperimentTable` is cached in the store's
  ``tables.jsonl`` keyed by ``(experiment, runner kwargs, table schema)``,
  which also covers the experiments whose measurement loops fall outside
  the scenario engine (E7/E8/E10).

A rerun against a warm store therefore performs **zero engine calls and
zero measurement loops**: every table is served from cache and the report,
figures and manifest re-render byte-identically (wall-clock data lives in
``timings.json``, outside the manifest).

The artifact directory layout::

    report.md           human-readable report (figures linked)
    report.html         self-contained twin (figures inlined)
    figures/*.svg       deterministic SVG charts
    tables/*.json       machine-readable ExperimentTables
    manifest.json       diffable provenance (spec hashes, CIs, versions)
    timings.json        wall-clock per experiment (never diffed)
    store/              default result store (when none is supplied)

``python -m repro paper run|render|diff`` is the CLI face of this module.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from .figures import PAPER_FIGURES, save_figure
from .manifest import (
    ManifestDiff,
    build_manifest,
    diff_manifests,
    load_manifest,
    write_manifest,
)
from .render import render_html, render_markdown
from .tables import ExperimentTable

__all__ = [
    "SMOKE_KWARGS",
    "PaperConfig",
    "PaperRun",
    "run_paper",
    "render_paper",
    "diff_paper",
]

#: Bumped when the cached-table layout changes (invalidates tables.jsonl).
TABLE_SCHEMA = 1

#: Reduced runner kwargs for ``--smoke``: the same shapes at CI-friendly
#: sizes (the full suite uses every runner's defaults).
SMOKE_KWARGS: Dict[str, Dict[str, Any]] = {
    "e5": {"n_trials": 8},
    "e6": {"n_trials": 4},
    "e7": {"n_samples": 8},
    "e8": {"n_trials": 4, "tol": 0.08},
    "e10": {"n_samples": 6},
    "e11": {"n_trials": 2},
    "e12": {"n_trials": 4},
    "e13": {"n_trials": 4},
    "e14": {"n_trials": 4},
}


def _all_experiment_ids() -> Tuple[str, ...]:
    from ..core.experiments import ALL_EXPERIMENTS

    return tuple(ALL_EXPERIMENTS)


@dataclass(frozen=True)
class PaperConfig:
    """What to run: seed, scale, smoke sizing, experiment subset.

    ``workers`` affects scheduling only — results are invariant to it by
    the determinism contract — so it is not part of the manifest config
    and does not change table cache keys.
    """

    seed: int = 0
    scale: int = 1
    smoke: bool = False
    experiments: Tuple[str, ...] = ()
    workers: Optional[int] = 1

    def __post_init__(self) -> None:
        all_ids = _all_experiment_ids()
        wanted = tuple(self.experiments) or all_ids
        unknown = [e for e in wanted if e not in all_ids]
        if unknown:
            raise ValueError(f"unknown experiment id(s): {', '.join(unknown)}")
        object.__setattr__(self, "experiments", wanted)

    def runner_kwargs(self, eid: str) -> Dict[str, Any]:
        """The kwargs one experiment runner is invoked with (cache-keyed)."""
        kwargs: Dict[str, Any] = {"seed": self.seed, "scale": self.scale}
        if self.smoke:
            kwargs.update(SMOKE_KWARGS.get(eid, {}))
        return kwargs

    def manifest_config(self) -> Dict[str, Any]:
        """The config section of the manifest (no wall-clock, no workers)."""
        return {
            "seed": self.seed,
            "scale": self.scale,
            "smoke": self.smoke,
            "experiments": list(self.experiments),
        }


def _runner_code_hash(eid: str) -> str:
    """Content hash of the runner's source plus the experiments module —
    part of the table cache key, so editing an experiment (or its shared
    helpers/metadata in :mod:`repro.core.experiments`) invalidates cached
    tables instead of silently serving numbers the old code computed.

    Deeper measurement code (percolation/span/engine internals) is *not*
    hashed — like every store entry, a cached table assumes the library
    below the experiment layer is unchanged; after such changes run with
    ``--refresh`` (the same contract the scenario result cache has always
    had)."""
    import inspect

    from ..core import experiments as _experiments

    try:
        runner_src = inspect.getsource(_experiments.ALL_EXPERIMENTS[eid])
        module_src = inspect.getsource(_experiments)
    except (OSError, TypeError):  # pragma: no cover - frozen/interactive envs
        runner_src = module_src = ""
    return hashlib.sha256(
        (runner_src + "\n" + module_src).encode()
    ).hexdigest()[:16]


def table_cache_key(eid: str, kwargs: Mapping[str, Any]) -> str:
    """Store key of one cached table: experiment × runner kwargs × table
    schema × runner code hash (see :func:`_runner_code_hash`)."""
    payload = {
        "experiment": eid,
        "kwargs": dict(kwargs),
        "table_schema": TABLE_SCHEMA,
        "code": _runner_code_hash(eid),
    }
    return "paper:" + hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


@dataclass
class PaperRun:
    """Everything one :func:`run_paper` invocation produced."""

    config: PaperConfig
    out: Path
    tables: Dict[str, ExperimentTable]
    manifest: Dict[str, Any]
    #: Tables served from the store vs freshly computed.
    table_hits: int = 0
    table_misses: int = 0
    #: Scenario-level session counters (engine calls = session misses).
    scenario_hits: int = 0
    scenario_misses: int = 0
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def engine_calls(self) -> int:
        return self.scenario_misses


def _write_artifact(
    tables: Dict[str, ExperimentTable],
    config: PaperConfig,
    out: Path,
) -> Dict[str, Any]:
    """Render tables → figures → reports → manifest into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    tables_dir = out / "tables"
    figures_dir = out / "figures"
    tables_dir.mkdir(exist_ok=True)
    figures_dir.mkdir(exist_ok=True)
    for eid, table in tables.items():
        # No sort_keys: column order is part of the table (deterministic by
        # construction) and must survive the JSON round-trip for
        # ``paper render`` to reproduce the reports byte-for-byte.
        (tables_dir / f"{eid}.json").write_text(
            table.to_json(indent=2) + "\n", encoding="utf-8"
        )
    # Drop leftovers from a previous run with a different experiment set —
    # the artifact directory must describe exactly this run, or a later
    # `paper render`/`paper diff` would resurrect experiments it never ran.
    for stale in (tables_dir).glob("*.json"):
        if stale.stem not in tables:
            stale.unlink()
    figures: Dict[str, str] = {}
    for name, (fig_eid, builder) in PAPER_FIGURES.items():
        table = tables.get(fig_eid)
        if table is None or not len(table):
            continue
        svg = builder(table)
        figures[name] = svg
        save_figure(svg, figures_dir / f"{name}.svg")
    for stale in figures_dir.glob("*.*"):
        if stale.stem not in figures:
            stale.unlink()
    manifest = build_manifest(tables, config.manifest_config(), figures=figures)
    (out / "report.md").write_text(
        render_markdown(tables, manifest, figures) + "\n", encoding="utf-8"
    )
    (out / "report.html").write_text(
        render_html(tables, manifest, figures) + "\n", encoding="utf-8"
    )
    write_manifest(manifest, out / "manifest.json")
    return manifest


def run_paper(
    config: PaperConfig,
    out: Union[str, Path],
    *,
    store: Union[None, str, Path] = None,
    refresh: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> PaperRun:
    """Run the configured experiment suite and write the artifact directory.

    ``store`` defaults to ``<out>/store`` so that re-invoking with the same
    ``out`` is warm by construction.  ``refresh`` forces recomputation
    (results are still written through to the store).
    """
    from ..api.session import Session
    from ..core.experiments import ALL_EXPERIMENTS

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    store_path = Path(store) if store is not None else out / "store"
    session = Session(store=str(store_path), workers=config.workers,
                      refresh=refresh)
    say = progress or (lambda _msg: None)
    run = PaperRun(config=config, out=out, tables={}, manifest={})
    for eid in config.experiments:
        kwargs = config.runner_kwargs(eid)
        key = table_cache_key(eid, kwargs)
        cached = None if refresh else session.store.get_table(key)
        t0 = time.perf_counter()
        table = None
        if cached is not None:
            try:
                table = ExperimentTable.from_dict(cached)
            except Exception:
                # A parseable-but-malformed payload is a cache miss, same
                # as the store's contract for its other entry kinds.
                table = None
        if table is not None:
            run.table_hits += 1
            say(f"{eid}: table served from store ({key})")
        else:
            runner = ALL_EXPERIMENTS[eid]
            table = runner(session=session, **kwargs)
            session.store.put_table(key, table.to_dict())
            run.table_misses += 1
            say(f"{eid}: computed {len(table)} row(s) "
                f"({time.perf_counter() - t0:.1f}s)")
        run.tables[eid] = table
        run.timings[eid] = round(time.perf_counter() - t0, 3)
    run.scenario_hits = session.hits
    run.scenario_misses = session.misses
    run.manifest = _write_artifact(run.tables, config, out)
    # Wall-clock provenance lives *outside* the manifest so identical runs
    # stay byte-identical where it matters.
    (out / "timings.json").write_text(
        json.dumps(
            {"experiments": run.timings,
             "total": round(sum(run.timings.values()), 3)},
            indent=2, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    return run


def _load_artifact(out: Union[str, Path]) -> Tuple[Dict[str, Any], Dict[str, ExperimentTable]]:
    out = Path(out)
    manifest = load_manifest(out / "manifest.json")
    tables: Dict[str, ExperimentTable] = {}
    for path in sorted((out / "tables").glob("*.json")):
        table = ExperimentTable.from_json(path.read_text(encoding="utf-8"))
        tables[table.experiment] = table
    if not tables:
        raise FileNotFoundError(f"no tables/*.json under {out}")
    return manifest, tables


def render_paper(out: Union[str, Path]) -> Dict[str, Any]:
    """Re-render reports/figures/manifest from an artifact's ``tables/``
    without executing anything (the zero-engine-call path)."""
    out = Path(out)
    manifest, tables = _load_artifact(out)
    raw_config = manifest.get("config", {})
    config = PaperConfig(
        seed=int(raw_config.get("seed", 0)),
        scale=int(raw_config.get("scale", 1)),
        smoke=bool(raw_config.get("smoke", False)),
        experiments=tuple(raw_config.get("experiments", ())) or tuple(tables),
    )
    return _write_artifact(tables, config, out)


def diff_paper(a: Union[str, Path], b: Union[str, Path]) -> ManifestDiff:
    """Compare two artifact directories by manifest (CI-overlap rule)."""
    return diff_manifests(
        load_manifest(Path(a) / "manifest.json"),
        load_manifest(Path(b) / "manifest.json"),
    )

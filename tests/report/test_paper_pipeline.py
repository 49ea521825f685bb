"""Integration tests: the `repro paper` pipeline and CLI.

Runs use a two-experiment subset (e2: deterministic sweep, e5: Monte-Carlo
with CI columns) at smoke sizes, so the whole module stays fast while
covering the acceptance contract: artifact completeness, warm-store
zero-engine-call reruns with byte-identical manifests, render-without-
execution, and the CI-overlap diff semantics.
"""

import json

import pytest

from repro.__main__ import main
from repro.api.store import ResultStore
from repro.report.paper import (
    PaperConfig,
    diff_paper,
    render_paper,
    run_paper,
    table_cache_key,
)

SUBSET = ("e2", "e5")


def _run(tmp_path, name, seed=0, **kwargs):
    config = PaperConfig(seed=seed, smoke=True, experiments=SUBSET)
    return run_paper(config, tmp_path / name, **kwargs)


class TestRunPaper:
    def test_artifact_layout(self, tmp_path):
        run = _run(tmp_path, "out")
        out = tmp_path / "out"
        assert (out / "report.md").is_file()
        assert (out / "report.html").is_file()
        assert (out / "manifest.json").is_file()
        assert (out / "timings.json").is_file()
        assert sorted(p.name for p in (out / "tables").glob("*.json")) == [
            "e2.json", "e5.json",
        ]
        assert [p.name for p in (out / "figures").glob("*.svg")] == [
            "disintegration.svg",
        ]
        assert run.table_misses == 2 and run.table_hits == 0
        assert run.engine_calls > 0

    def test_warm_rerun_zero_engine_calls_and_identical_manifest(self, tmp_path):
        first = _run(tmp_path, "out")
        cold_manifest = (tmp_path / "out" / "manifest.json").read_bytes()
        second = _run(tmp_path, "out")
        assert second.engine_calls == 0
        assert second.scenario_hits == 0  # tables served before any scenario
        assert second.table_hits == 2 and second.table_misses == 0
        assert (tmp_path / "out" / "manifest.json").read_bytes() == cold_manifest
        assert first.manifest == second.manifest

    def test_refresh_recomputes(self, tmp_path):
        _run(tmp_path, "out")
        again = _run(tmp_path, "out", refresh=True)
        assert again.table_misses == 2

    def test_malformed_cached_table_is_a_miss_not_a_crash(self, tmp_path):
        _run(tmp_path, "out")
        store = ResultStore(tmp_path / "out" / "store")
        key = sorted(store.engine.keys("tables"))[0]
        seg, _entry = store.engine.locate("tables", key)
        record = json.loads(seg.read_text().splitlines()[0])
        record["payload"] = {"not": "a table"}
        lines = seg.read_text().splitlines()
        lines[0] = json.dumps(record)
        seg.write_text("\n".join(lines) + "\n")
        (seg.parent / "index.log").unlink()  # force a rebuild on next open
        again = _run(tmp_path, "out")
        assert again.table_misses == 1 and again.table_hits == 1
        assert again.engine_calls == 0  # scenario store still warm

    def test_subset_rerun_prunes_stale_artifact_files(self, tmp_path):
        _run(tmp_path, "out")
        config = PaperConfig(seed=0, smoke=True, experiments=("e2",))
        run_paper(config, tmp_path / "out")
        out = tmp_path / "out"
        assert [p.name for p in (out / "tables").glob("*.json")] == ["e2.json"]
        assert list((out / "figures").glob("*.svg")) == []  # e5's figure gone
        render_paper(out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["experiments"]) == ["e2"]

    def test_cache_key_tracks_runner_code(self):
        from repro.report.paper import _runner_code_hash

        assert _runner_code_hash("e2") != _runner_code_hash("e3")
        assert _runner_code_hash("e2") == _runner_code_hash("e2")

    def test_explicit_store_is_shared_across_out_dirs(self, tmp_path):
        store = tmp_path / "shared-store"
        _run(tmp_path, "a", store=store)
        warm = _run(tmp_path, "b", store=store)
        assert warm.engine_calls == 0 and warm.table_hits == 2
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    def test_manifest_carries_provenance_and_cis(self, tmp_path):
        run = _run(tmp_path, "out")
        e5 = run.manifest["experiments"]["e5"]
        kinds = {p["kind"] for p in e5["provenance"]}
        assert kinds == {"graph", "sweep"}
        sweep = next(p for p in e5["provenance"] if p["kind"] == "sweep")
        assert sweep["seed_policy"] == "scenario" and sweep["trials"] == 8
        assert all(s["halfwidth"] is not None for s in e5["stats"])
        assert run.manifest["config"] == {
            "seed": 0, "scale": 1, "smoke": True, "experiments": list(SUBSET),
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            PaperConfig(experiments=("e99",))


class TestRenderPaper:
    def test_render_reproduces_reports_without_store(self, tmp_path):
        _run(tmp_path, "out")
        out = tmp_path / "out"
        before = {
            name: (out / name).read_bytes()
            for name in ("report.md", "report.html", "manifest.json")
        }
        (out / "report.md").unlink()
        render_paper(out)
        for name, content in before.items():
            assert (out / name).read_bytes() == content

    def test_render_missing_dir_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            render_paper(tmp_path / "nope")


class TestDiffPaper:
    def test_different_seeds_diff_clean(self, tmp_path):
        _run(tmp_path, "a", seed=0)
        _run(tmp_path, "b", seed=3)
        diff = diff_paper(tmp_path / "a", tmp_path / "b")
        assert diff.clean
        assert any(e.column == "seed" for e in diff.informational)

    def test_tampered_mean_is_flagged(self, tmp_path):
        _run(tmp_path, "a", seed=0)
        _run(tmp_path, "b", seed=0)
        table_file = tmp_path / "b" / "tables" / "e5.json"
        payload = json.loads(table_file.read_text())
        payload["rows"][0]["gamma_mean"] = 5.0  # far outside any CI
        table_file.write_text(json.dumps(payload))
        render_paper(tmp_path / "b")
        diff = diff_paper(tmp_path / "a", tmp_path / "b")
        assert not diff.clean
        assert diff.flagged[0].column == "gamma_mean"


class TestCiCells:
    def test_wilson_halfwidth_contains_asymmetric_interval(self):
        """The differ assumes mean ± half; for Wilson intervals (asymmetric
        at extreme rates) the declared half must cover the far side, or two
        statistically compatible runs can false-flag (e.g. 4/4 vs 1/4)."""
        import math

        from repro.api.sweeps import PointStats
        from repro.core.experiments import _ci
        from repro.util.stats import wilson_interval

        for successes, n in ((4, 4), (1, 4), (0, 3)):
            lo, hi = wilson_interval(successes, n)
            mean = successes / n
            stats = PointStats(
                metric="prune2_success", n=n, mean=mean, std=0.0,
                ci_lo=lo, ci_hi=hi, halfwidth=(hi - lo) / 2.0,
                interval="wilson", minimum=0.0, maximum=1.0, n_skipped=0,
            )
            half = _ci(stats)
            assert half is not None
            assert mean - half <= lo + 1e-4 and hi - 1e-4 <= mean + half
        # the reviewer's concrete pair: symmetric halves must now overlap
        lo_a, hi_a = wilson_interval(4, 4)
        lo_b, hi_b = wilson_interval(1, 4)
        half_a = max(hi_a - 1.0, 1.0 - lo_a)
        half_b = max(hi_b - 0.25, 0.25 - lo_b)
        assert abs(1.0 - 0.25) <= half_a + half_b  # intervals truly overlap


class TestTableCache:
    def test_cache_key_depends_on_kwargs_and_experiment(self):
        assert table_cache_key("e2", {"seed": 0}) != table_cache_key("e3", {"seed": 0})
        assert table_cache_key("e2", {"seed": 0}) != table_cache_key("e2", {"seed": 1})
        assert table_cache_key("e2", {"seed": 0}) == table_cache_key("e2", {"seed": 0})

    def test_store_table_round_trip_and_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_table("k1", {"rows": [1, 2]})
        assert store.get_table("k1") == {"rows": [1, 2]}
        assert store.stats().tables == 1
        # corrupt line is skipped, not fatal
        seg, _entry = store.engine.locate("tables", "k1")
        with open(seg, "a") as fh:
            fh.write("{broken\n")
        store.reload()
        assert store.get_table("k1") == {"rows": [1, 2]}
        assert store.corrupt_entries == 1
        # last entry wins; prune compacts
        store.put_table("k1", {"rows": [3]})
        counts = store.prune()
        assert counts["kept"] == 0  # no scenario results involved
        store.reload()
        assert store.get_table("k1") == {"rows": [3]}
        store.clear()
        assert store.get_table("k1") is None


class TestPaperCli:
    def test_run_render_diff_round_trip(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["paper", "run", "--smoke", "--only", "e2,e5"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert "tables: 0 cached, 2 computed" in capsys.readouterr().out
        assert main(args + ["--out", str(out_a)]) == 0
        assert "engine calls: 0" in capsys.readouterr().out
        assert main(args + ["--out", str(out_b), "--seed", "3"]) == 0
        capsys.readouterr()

        assert main(["paper", "render", str(out_a)]) == 0
        capsys.readouterr()

        diff_json = tmp_path / "diff.json"
        code = main(["paper", "diff", str(out_a), str(out_b),
                     "--json", str(diff_json)])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out
        assert json.loads(diff_json.read_text())["clean"] is True

    def test_diff_exit_codes(self, tmp_path, capsys):
        assert main(["paper", "diff", str(tmp_path / "x"), str(tmp_path / "y")]) == 2
        capsys.readouterr()

    def test_usage_on_bad_action(self, capsys):
        assert main(["paper", "bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_only_subset(self, capsys, tmp_path):
        assert main(["paper", "run", "--only", "e99",
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown experiment" in capsys.readouterr().err

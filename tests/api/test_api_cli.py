"""CLI smoke tests for ``python -m repro run`` / ``run-batch`` / ``components``."""

import json

import pytest

from repro.__main__ import main
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec


@pytest.fixture
def scenario_dict():
    return ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 8, "d": 2}),
        fault=FaultSpec("random_node", {"p": 0.1}),
        analysis=AnalysisSpec(mode="node"),
        seed=3,
        label="cli-smoke",
    ).to_dict()


class TestRunCommand:
    def test_run_single_spec(self, tmp_path, capsys, scenario_dict):
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps(scenario_dict))
        assert main(["run", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "cli-smoke" in out
        assert "torus-8x8" in out

    def test_run_writes_json_results(self, tmp_path, capsys, scenario_dict):
        spec_file = tmp_path / "scenario.json"
        out_file = tmp_path / "results.json"
        spec_file.write_text(json.dumps(scenario_dict))
        assert main(["run", str(spec_file), "--json", str(out_file)]) == 0
        results = json.loads(out_file.read_text())
        assert len(results) == 1
        assert results[0]["n_original"] == 64
        assert results[0]["spec"]["label"] == "cli-smoke"

    def test_run_batch(self, tmp_path, capsys, scenario_dict):
        batch = [dict(scenario_dict, seed=s) for s in range(5)]
        spec_file = tmp_path / "batch.json"
        spec_file.write_text(json.dumps(batch))
        assert main(["run-batch", str(spec_file), "--workers", "2"]) == 0
        assert "5 scenario(s)" in capsys.readouterr().out

    def test_run_rejects_array(self, tmp_path, capsys, scenario_dict):
        spec_file = tmp_path / "batch.json"
        spec_file.write_text(json.dumps([scenario_dict, scenario_dict]))
        assert main(["run", str(spec_file)]) == 2
        assert "run-batch" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_malformed_spec(self, tmp_path, capsys):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps({"graph": {"generator": "torus"}, "oops": 1}))
        assert main(["run", str(spec_file)]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_unknown_component_fails_cleanly(self, tmp_path, capsys, scenario_dict):
        scenario_dict["graph"]["generator"] = "warp_core"
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps(scenario_dict))
        assert main(["run", str(spec_file)]) == 1
        assert "unknown generator" in capsys.readouterr().err


class TestStoreFlags:
    def _write_batch(self, tmp_path, scenario_dict, n=5):
        spec_file = tmp_path / "batch.json"
        spec_file.write_text(
            json.dumps([dict(scenario_dict, seed=s) for s in range(n)])
        )
        return spec_file

    def test_run_batch_cold_then_warm(self, tmp_path, capsys, scenario_dict):
        spec_file = self._write_batch(tmp_path, scenario_dict)
        store = str(tmp_path / "store")
        assert main(["run-batch", str(spec_file), "--store", store]) == 0
        assert "0 cached, 5 computed" in capsys.readouterr().out
        assert main(["run-batch", str(spec_file), "--store", store]) == 0
        assert "5 cached, 0 computed" in capsys.readouterr().out

    def test_resume_uses_default_store(self, tmp_path, capsys, monkeypatch,
                                       scenario_dict):
        spec_file = self._write_batch(tmp_path, scenario_dict, n=2)
        monkeypatch.chdir(tmp_path)
        assert main(["run-batch", str(spec_file), "--resume"]) == 0
        assert (tmp_path / ".repro-cache").is_dir()
        assert main(["run-batch", str(spec_file), "--resume"]) == 0
        assert "2 cached, 0 computed" in capsys.readouterr().out

    def test_single_run_store(self, tmp_path, capsys, scenario_dict):
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps(scenario_dict))
        store = str(tmp_path / "store")
        assert main(["run", str(spec_file), "--store", store]) == 0
        assert main(["run", str(spec_file), "--store", store]) == 0
        assert "1 cached, 0 computed" in capsys.readouterr().out

    def test_unusable_store_path_fails_cleanly(self, tmp_path, capsys,
                                               scenario_dict):
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps(scenario_dict))
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        assert main(["run", str(spec_file), "--store", str(blocker)]) == 2
        assert "cannot open store" in capsys.readouterr().err
        assert main(["e2", "--store", str(blocker)]) == 2
        assert "cannot open store" in capsys.readouterr().err

    def test_experiment_with_store_warm_rerun(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["e4", "--seed", "1", "--store", store]) == 0
        assert "0 cached, 8 computed" in capsys.readouterr().out
        assert main(["e4", "--seed", "1", "--store", store]) == 0
        assert "8 cached, 0 computed" in capsys.readouterr().out


class TestCacheCommand:
    def test_stats_clear_prune_cycle(self, tmp_path, capsys, scenario_dict):
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps(scenario_dict))
        store = str(tmp_path / "store")
        assert main(["run", str(spec_file), "--store", store]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "1" in out
        assert main(["cache", "prune", "--store", store]) == 0
        assert "kept 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--store", store]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_stats_on_missing_store_is_graceful(self, tmp_path, capsys):
        assert main(["cache", "stats", "--store", str(tmp_path / "nope")]) == 0
        assert "no store" in capsys.readouterr().out

    def test_clear_on_missing_store_errors(self, tmp_path, capsys):
        assert main(["cache", "clear", "--store", str(tmp_path / "nope")]) == 2


class TestRegistryCommand:
    def test_lists_all_sections_with_metadata(self, capsys):
        assert main(["registry"]) == 0
        out = capsys.readouterr().out
        for needle in ("generators (", "fault models (", "pruners (",
                       "finders (", "torus", "random_node", "[seeded]",
                       "[raw]", "sweep"):
            assert needle in out

    def test_single_section(self, capsys):
        assert main(["registry", "finders"]) == 0
        out = capsys.readouterr().out
        assert "finders (" in out and "hybrid" in out
        assert "generators (" not in out


class TestExperimentPathStillWorks:
    def test_list_mentions_subcommands(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "run-batch" in out

    def test_workers_flag_accepted(self, capsys):
        assert main(["e2", "--seed", "1", "--workers", "1"]) == 0
        assert "alpha_times_k" in capsys.readouterr().out

    def test_list_prints_every_experiment_title(self, capsys):
        from repro.core.experiments import ALL_EXPERIMENTS, EXPERIMENT_META

        assert set(EXPERIMENT_META) == set(ALL_EXPERIMENTS)
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[: len(ALL_EXPERIMENTS)] == [
            f"{key:>4}  {EXPERIMENT_META[key]['title']}" for key in ALL_EXPERIMENTS
        ]

    def test_run_header_uses_experiment_title(self, capsys):
        from repro.core.experiments import EXPERIMENT_META

        assert main(["e2", "--seed", "1"]) == 0
        title = EXPERIMENT_META["e2"]["title"]
        assert f"E2 — {title} (" in capsys.readouterr().out


@pytest.fixture
def sweep_dict(scenario_dict):
    from repro.api.sweeps import Axis, SweepSpec
    from repro.api.specs import ScenarioSpec

    base = ScenarioSpec.from_dict(scenario_dict).with_seed(None)
    return SweepSpec(
        base=base,
        axes=(Axis("fault.params.p", (0.05, 0.2)),),
        trials=3,
        seed=11,
        metrics=("gamma",),
        label="cli-sweep",
    ).to_dict()


class TestSweepCommand:
    def test_plan(self, tmp_path, capsys, sweep_dict):
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps(sweep_dict))
        assert main(["sweep", "plan", str(sweep_file)]) == 0
        out = capsys.readouterr().out
        assert "points:   2" in out
        assert "fixed" in out
        assert "cli-sweep" in out
        assert "max trials: 6" in out

    def test_plan_caps_max_trials_at_transition_budget(
        self, tmp_path, capsys, sweep_dict
    ):
        """Regression: a transition sweep's budget caps its total, but
        `plan` printed points x trials (24 here) as the maximum."""
        sweep_dict["axes"][0]["values"] = [0.05, 0.2, 0.4]
        sweep_dict["trials"] = 8
        sweep_dict["policy"] = {
            "kind": "transition", "target": 0.001, "budget": 10,
            "min_trials": 2, "chunk": 2,
        }
        sweep_file = tmp_path / "sweep.json"
        out_file = tmp_path / "result.json"
        sweep_file.write_text(json.dumps(sweep_dict))
        assert main(["sweep", "plan", str(sweep_file)]) == 0
        out = capsys.readouterr().out
        assert "max trials: 10\n" in out
        assert "10 total" in out
        assert main(
            ["sweep", "run", str(sweep_file), "--json", str(out_file)]
        ) == 0
        assert json.loads(out_file.read_text())["total_trials"] == 10

    def test_run_and_status_and_warm_rerun(self, tmp_path, capsys, sweep_dict):
        sweep_file = tmp_path / "sweep.json"
        out_file = tmp_path / "result.json"
        store = tmp_path / "store"
        sweep_file.write_text(json.dumps(sweep_dict))
        assert main(
            ["sweep", "run", str(sweep_file), "--store", str(store),
             "--json", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "6 trial(s)" in out
        assert "0 cached, 6 computed" in out
        payload = json.loads(out_file.read_text())
        assert payload["total_trials"] == 6
        assert len(payload["points"]) == 2
        fingerprint = payload["fingerprint"]

        assert main(["sweep", "status", str(sweep_file), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "6 trial(s) cached" in out
        assert "3/3" in out

        # warm rerun: all served from the store, identical fingerprint
        assert main(["sweep", "run", str(sweep_file), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "6 cached, 0 computed" in out
        assert fingerprint in out

    def test_status_without_store_errors(self, tmp_path, capsys, sweep_dict):
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps(sweep_dict))
        missing = tmp_path / "nope"
        assert main(
            ["sweep", "status", str(sweep_file), "--store", str(missing)]
        ) == 2
        assert "no store" in capsys.readouterr().out

    def test_malformed_sweep(self, tmp_path, capsys):
        sweep_file = tmp_path / "bad.json"
        sweep_file.write_text(json.dumps({"axes": []}))
        assert main(["sweep", "run", str(sweep_file)]) == 2
        assert "cannot load sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", None),
            ("metrics", 7),
            ("policy", {"kind": "cluster", "target": 0.05}),
            ("policy", {"kind": "budget", "budget": 10}),
        ],
    )
    def test_plan_rejects_bad_field_with_exit_2(
        self, tmp_path, capsys, sweep_dict, field, value
    ):
        """Regression: a wrong-typed field escaped as a TypeError traceback
        (exit 1) instead of the one-line load error (exit 2)."""
        sweep_dict[field] = value
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps(sweep_dict))
        assert main(["sweep", "plan", str(sweep_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot load sweep from {sweep_file}: ")
        assert len(err.strip().splitlines()) == 1

    def test_missing_sweep_file(self, tmp_path, capsys):
        assert main(["sweep", "plan", str(tmp_path / "nope.json")]) == 2
        assert "cannot load sweep" in capsys.readouterr().err

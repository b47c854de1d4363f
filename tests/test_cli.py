"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.perf import parallel
from repro.seeds import derive_driver_seed

#: Name of the deleted stage-graph engine's subcommand and evaluate flag.
REMOVED_ENGINE = "dag"


class TestList:
    def test_lists_all_designs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "BISC" in out and "Pollman" in out


class TestAssess:
    def test_assess_bisc(self, capsys):
        assert main(["assess", "1"]) == 0
        out = capsys.readouterr().out
        assert "BISC" in out and "SAFE" in out

    def test_assess_unknown_soc(self, capsys):
        assert main(["assess", "42"]) == 2


class TestEvaluate:
    def test_single_experiment(self, capsys, tmp_path):
        assert main(["evaluate", "fig9",
                     "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "design points" in out
        assert (tmp_path / "fig9.csv").exists()

    def test_unknown_experiment(self, capsys, tmp_path):
        assert main(["evaluate", "fig99",
                     "--output-dir", str(tmp_path)]) == 2

    def test_multiple_experiments(self, capsys, tmp_path):
        assert main(["evaluate", "table1", "fig4",
                     "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "fig4.csv").exists()


class TestFaultPlanFlag:
    @pytest.mark.parametrize("command", ["evaluate", "chaos"])
    @pytest.mark.parametrize("section", [
        {"worker": {"hang_s": {"table1": 30.0}}},
        {"retry": {"timeout_s": 5.0}},
    ], ids=["worker.hang_s", "retry.timeout_s"])
    def test_plan_naming_a_removed_key_is_a_bad_fault_plan(
            self, command, section, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(section), encoding="utf-8")
        argv = [command, "--fault-plan", str(plan), "--quiet",
                "--output-dir", str(tmp_path / "out")]
        if command == "evaluate":
            argv.insert(1, "table1")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{command}: bad fault plan" in err
        assert "bad fault-plan section" in err


class TestExplore:
    def test_explore_bisc(self, capsys):
        assert main(["explore", "1", "--channels", "2048"]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "best at target" in out

    def test_explore_wired_rejected(self, capsys):
        assert main(["explore", "10"]) == 2

    def test_explore_unknown(self, capsys):
        assert main(["explore", "42"]) == 2

    def test_explore_target_below_standard(self, capsys):
        assert main(["explore", "1", "--channels", "512"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("explore: ") and err.count("\n") == 1


class TestRoadmap:
    def test_roadmap_bisc(self, capsys):
        assert main(["roadmap", "1"]) == 0
        out = capsys.readouterr().out
        assert "overtaken_in" in out and "never" in out

    def test_roadmap_wired_rejected(self, capsys):
        assert main(["roadmap", "9"]) == 2

    def test_roadmap_unknown(self, capsys):
        assert main(["roadmap", "42"]) == 2

    def test_roadmap_non_positive_doubling(self, capsys):
        assert main(["roadmap", "1", "--doubling-years", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("roadmap: ") and err.count("\n") == 1


class TestValidate:
    @staticmethod
    def _fake_results(verdict):
        from repro.experiments.validate import CLAIMS, ClaimResult
        return [ClaimResult(claim=CLAIMS[0], verdict=verdict,
                            measured=1.0)]

    @staticmethod
    def _safety_results(power_mw):
        """The real safety claims scored on one fig4 design of
        ``power_mw`` over 1 cm^2 and one feasible fig7 SoC."""
        from repro.experiments.base import ExperimentResult
        from repro.experiments.validate import SAFETY_CLAIMS, score_claims
        fig4 = ExperimentResult("fig4", "one design", rows=[
            {"name": "demo", "power_mw": power_mw, "area_mm2": 100.0}])
        fig7 = ExperimentResult("fig7", "one SoC", rows=[
            {"soc": "demo", "channels": 1024, "feasible": True}])
        return score_claims(SAFETY_CLAIMS, {"fig4": fig4, "fig7": fig7})

    def test_validate_all_pass_exits_zero(self, capsys, monkeypatch):
        import repro.experiments.validate as validate_mod
        monkeypatch.setattr(validate_mod, "validate_all",
                            lambda: self._fake_results("pass"))
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "1 pass, 0 warn, 0 fail" in out
        assert out.rstrip().endswith("Overall: PASS")

    def test_validate_failure_exits_one(self, capsys, monkeypatch):
        import repro.experiments.validate as validate_mod
        monkeypatch.setattr(validate_mod, "validate_all",
                            lambda: self._fake_results("fail"))
        assert main(["validate"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    @pytest.mark.parametrize("power_mw, code, overall", [
        (500.0, 1, "Overall: FAIL"),
        (35.0, 0, "Overall: PASS with warnings"),
    ])
    def test_safety_verdict_sets_exit_code(self, capsys, monkeypatch,
                                           power_mw, code, overall):
        # 500 mW/cm^2 breaks the budget and the 2 K line; 35 mW/cm^2
        # is within budget but rises between 1 and 2 K: a warning,
        # which still exits 0.
        import repro.experiments.validate as validate_mod
        monkeypatch.setattr(validate_mod, "validate_all",
                            lambda: self._safety_results(power_mw))
        assert main(["validate"]) == code
        assert capsys.readouterr().out.rstrip().endswith(overall)


class TestObservabilityFlags:
    def test_trace_writes_json_with_experiment_span(self, capsys,
                                                    tmp_path):
        assert main(["evaluate", "fig8", "--trace",
                     "--output-dir", str(tmp_path)]) == 0
        trace_path = tmp_path / "trace.json"
        assert trace_path.exists()
        spans = json.loads(trace_path.read_text())
        names = [s["name"] for s in spans]
        assert "experiment.fig8" in names
        assert f"trace written to {trace_path}" in capsys.readouterr().out

    def test_quiet_suppresses_renderings(self, capsys, tmp_path):
        assert main(["evaluate", "fig8", "--quiet",
                     "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" not in out
        assert (tmp_path / "fig8.csv").exists()

    def test_metrics_flag_prints_snapshot(self, capsys, tmp_path):
        assert main(["evaluate", "fig8", "--quiet", "--metrics",
                     "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "-- metrics --" in out
        assert "experiments.runs" in out

    def test_evaluate_writes_manifest_next_to_csv(self, tmp_path):
        assert main(["evaluate", "fig8", "--quiet",
                     "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads(
            (tmp_path / "fig8.manifest.json").read_text())
        assert manifest["name"] == "fig8"
        assert manifest["duration_s"] is not None
        assert manifest["python"]

    def test_seed_recorded_in_manifest(self, tmp_path):
        assert main(["evaluate", "fig8", "--quiet", "--seed", "42",
                     "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads(
            (tmp_path / "fig8.manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["derived_seed"] == derive_driver_seed(42, "fig8")

    def test_state_resets_between_invocations(self, tmp_path):
        from repro.obs import manifest as manifest_mod
        from repro.obs import recorder
        assert main(["evaluate", "fig8", "--quiet", "--trace",
                     "--metrics", "--seed", "7",
                     "--output-dir", str(tmp_path)]) == 0
        assert recorder.RECORDER.events == []
        recorder.inc("after.the.run")  # the switch is off again
        assert recorder.RECORDER.events == []
        assert manifest_mod.current_seed() is None


class TestProfile:
    def test_profile_prints_span_tree_and_hotspots(self, capsys):
        assert main(["profile", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "experiment.fig8" in out
        assert "fig8.worked_examples" in out
        assert "hotspots" in out
        # Durations are rendered with a unit suffix.
        assert " ms" in out or " us" in out or " s" in out

    def test_profile_unknown_experiment(self, capsys):
        assert main(["profile", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_profile_extension_experiment_is_known(self, capsys):
        assert main(["profile", "fig8", "--top", "3"]) == 0

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_profile_top_below_one_exits_two(self, top, capsys):
        assert main(["profile", "fig8", "--top", top]) == 2
        assert "--top" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        [REMOVED_ENGINE, "show", "fig7"],
        ["evaluate", "fig7", "--" + REMOVED_ENGINE],
    ], ids=["subcommand", "evaluate-flag"])
    def test_removed_graph_engine_surface_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("action",
                             ["view", "query", "diff", "critical-path"])
    def test_retired_obs_analytics_rejected(self, action, tmp_path,
                                            capsys):
        """Timelines are compared by bytes; the analytics are gone."""
        with pytest.raises(SystemExit) as exc:
            main(["obs", action, str(tmp_path / "events.jsonl")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["evaluate", "fig7", "--jobs", "2"],
        ["profile", "all", "--jobs", "2"],
    ], ids=["evaluate", "profile"])
    def test_drivers_have_no_jobs_flag(self, argv, capsys):
        """Drivers run one way, serially; only ``fleet`` forks."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestFleet:
    ARGS = ["fleet", "--sessions", "2", "--decoder", "kalman",
            "--seed", "3", "--quiet"]

    def test_jobs_zero_shards_across_all_cpus(self, tmp_path, monkeypatch):
        assert main([*self.ARGS,
                     "--output-dir", str(tmp_path / "ser")]) == 0
        slots = []

        class Recording(parallel.Launcher):
            def __init__(self, jobs):
                slots.append(jobs)
                super().__init__(jobs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(parallel, "Launcher", Recording)
        assert main([*self.ARGS, "--jobs", "0",
                     "--output-dir", str(tmp_path / "all")]) == 0
        assert slots == [2]
        assert ((tmp_path / "all" / "fleet.csv").read_bytes()
                == (tmp_path / "ser" / "fleet.csv").read_bytes())

    def test_negative_jobs_rejected(self, capsys, tmp_path):
        assert main([*self.ARGS, "--jobs", "-2",
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--jobs must be positive (or 0 for all CPUs)" in err


class TestCacheFlag:
    def test_warm_run_reports_all_hits(self, capsys, tmp_path):
        args = ["evaluate", "table1", "fig4", "--seed", "7", "--quiet",
                "--cache", "--output-dir", str(tmp_path)]
        assert main(args) == 0
        assert "cache: 0/2 driver hits" in capsys.readouterr().out
        assert main(args) == 0
        assert "cache: 2/2 driver hits" in capsys.readouterr().out
        assert (tmp_path / ".cache").is_dir()

    def test_no_cache_is_default(self, capsys, tmp_path):
        assert main(["evaluate", "table1", "--quiet",
                     "--output-dir", str(tmp_path)]) == 0
        assert "driver hits" not in capsys.readouterr().out
        assert not (tmp_path / ".cache").exists()

    def test_warm_csv_bytes_identical(self, capsys, tmp_path):
        cached = ["evaluate", "fig4", "--seed", "7", "--quiet",
                  "--cache", "--output-dir", str(tmp_path / "c")]
        assert main(cached) == 0
        cold = (tmp_path / "c" / "fig4.csv").read_bytes()
        assert main(cached) == 0
        assert (tmp_path / "c" / "fig4.csv").read_bytes() == cold
        assert main(["evaluate", "fig4", "--seed", "7", "--quiet",
                     "--output-dir", str(tmp_path / "p")]) == 0
        assert (tmp_path / "p" / "fig4.csv").read_bytes() == cold


class TestCacheCommand:
    def _populate(self, tmp_path):
        assert main(["evaluate", "table1", "--seed", "7", "--quiet",
                     "--cache", "--output-dir", str(tmp_path)]) == 0

    def test_stats(self, capsys, tmp_path):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats",
                     "--output-dir", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["corrupt"] == 0
        assert stats["by_label"] == {"table1": 1}

    def test_clear(self, capsys, tmp_path):
        self._populate(tmp_path)
        assert main(["cache", "clear",
                     "--output-dir", str(tmp_path)]) == 0
        assert "1 entries removed" in capsys.readouterr().out
        capsys.readouterr()
        assert main(["cache", "stats",
                     "--output-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_gc_with_no_limits_keeps_entries(self, capsys, tmp_path):
        self._populate(tmp_path)
        assert main(["cache", "gc", "--output-dir", str(tmp_path)]) == 0
        assert "removed 0, kept 1" in capsys.readouterr().out

    def test_gc_by_age_prunes(self, capsys, tmp_path):
        self._populate(tmp_path)
        assert main(["cache", "gc", "--max-age-days", "0",
                     "--output-dir", str(tmp_path)]) == 0
        assert "removed 1, kept 0" in capsys.readouterr().out

    def test_stats_on_missing_cache(self, capsys, tmp_path):
        assert main(["cache", "stats",
                     "--output-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

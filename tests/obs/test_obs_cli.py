"""End-to-end tests of ``python -m repro obs`` and ``--events`` runs."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.bench import append_history, history_record, load_history


@pytest.fixture
def events_run(tmp_path, capsys):
    """One small --events run; yields (output_dir, events_path)."""
    out_dir = tmp_path / "run"
    assert main(["evaluate", "table1", "fig4", "--seed", "7", "--events",
                 "--quiet", "--output-dir", str(out_dir)]) == 0
    capsys.readouterr()
    return out_dir, out_dir / "events.jsonl"


class TestEventsFlag:
    def test_events_jsonl_written_and_parseable(self, events_run):
        _, events_path = events_run
        assert events_path.exists()
        events = [json.loads(line)
                  for line in events_path.read_text().splitlines()]
        assert events
        assert {e["driver"] for e in events} >= {"table1", "fig4"}
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_fixed_seed_events_byte_identical(self, tmp_path, capsys):
        paths = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["evaluate", "table1", "--seed", "7", "--events",
                         "--quiet", "--output-dir", str(out_dir)]) == 0
            paths.append(out_dir / "events.jsonl")
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_no_events_file_without_flag(self, tmp_path, capsys):
        out_dir = tmp_path / "plain"
        assert main(["evaluate", "table1", "--quiet",
                     "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert not (out_dir / "events.jsonl").exists()


    def test_cached_run_timelines(self, tmp_path, capsys):
        out_dir = tmp_path / "cached"
        timelines = []
        for _ in ("cold", "warm"):
            assert main(["evaluate", "table1", "--seed", "7", "--cache",
                         "--events", "--quiet",
                         "--output-dir", str(out_dir)]) == 0
            timelines.append([
                json.loads(line) for line in
                (out_dir / "events.jsonl").read_text().splitlines()])
        capsys.readouterr()
        cold, warm = timelines
        assert any(e["name"] == "cache.put" and e["kind"] == "span_start"
                   and e["attrs"].get("key") for e in cold)
        assert any(e["kind"] == "cache" and e["name"] == "driver.hit"
                   for e in warm)


class TestObsBenchGate:
    def _seed_history(self, path, after_s_list):
        for after_s in after_s_list:
            record = history_record(
                [{"name": "rice_encode", "after_s": after_s,
                  "speedup": 10.0}], cpus=4, sha="seed")
            append_history(record, path)

    def test_gate_passes_on_stable_history(self, tmp_path, capsys):
        history = tmp_path / "bench_history.jsonl"
        self._seed_history(history, [0.010, 0.010, 0.010, 0.0101])
        assert main(["obs", "bench-gate", "--history",
                     str(history)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gate_fails_on_25pct_slowdown(self, tmp_path, capsys):
        history = tmp_path / "bench_history.jsonl"
        self._seed_history(history, [0.010, 0.010, 0.010])
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps({"entries": [
            {"name": "rice_encode", "after_s": 0.0125,
             "speedup": 8.0}], "cpus": 4}),
            encoding="utf-8")
        code = main(["obs", "bench-gate", "--history", str(history),
                     "--input", str(slow)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "regression" in out

    def test_append_records_the_run_keyed_by_cpus(self, tmp_path, capsys):
        history = tmp_path / "bench_history.jsonl"
        run = tmp_path / "gate_input.json"
        run.write_text(json.dumps({"cpus": 2, "entries": [
            {"name": "e2e.paper.wall_s", "after_s": 1.1, "speedup": 1.0},
            {"name": "e2e.paper.setup_s", "after_s": 5.5,
             "speedup": 1.0}]}), encoding="utf-8")
        assert main(["obs", "bench-gate", "--history", str(history),
                     "--input", str(run), "--append"]) == 0
        [record] = load_history(history)
        assert record["config"] == {"cpus": 2}
        assert sorted(record["kernels"]) == ["e2e.paper.setup_s",
                                             "e2e.paper.wall_s"]
        assert "no baseline yet" in capsys.readouterr().out

    def test_failing_run_is_not_appended(self, tmp_path, capsys):
        history = tmp_path / "bench_history.jsonl"
        self._seed_history(history, [0.010, 0.010])
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps({"entries": [
            {"name": "rice_encode", "after_s": 0.050,
             "speedup": 2.0}], "cpus": 4}),
            encoding="utf-8")
        assert main(["obs", "bench-gate", "--history", str(history),
                     "--input", str(slow), "--append"]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert len(history.read_text().splitlines()) == 2

    def test_empty_history_exits_two(self, tmp_path, capsys):
        assert main(["obs", "bench-gate", "--history",
                     str(tmp_path / "none.jsonl")]) == 2

    @pytest.mark.parametrize("payload", [
        {"cpus": 4},
        {"entries": [{"after_s": 0.01, "speedup": 10.0}]},
        {"entries": [{"name": "rice_encode", "speedup": 10.0}]},
    ], ids=["no-entries", "entry-without-name", "entry-without-after_s"])
    def test_wrong_shape_input_exits_two(self, tmp_path, capsys, payload):
        history = tmp_path / "bench_history.jsonl"
        self._seed_history(history, [0.010])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["obs", "bench-gate", "--history", str(history),
                     "--input", str(bad)]) == 2
        assert "obs: bad bench input:" in capsys.readouterr().err


    @pytest.mark.parametrize("flags", [
        ["--window", "0"],
        ["--window", "-1"],
        ["--threshold", "-0.1"],
    ], ids=["window-zero", "window-negative", "threshold-negative"])
    def test_bad_gate_flags_exit_two(self, tmp_path, capsys, flags):
        history = tmp_path / "bench_history.jsonl"
        self._seed_history(history, [0.010, 0.010])
        assert main(["obs", "bench-gate", "--history", str(history),
                     *flags]) == 2
        assert "obs:" in capsys.readouterr().err

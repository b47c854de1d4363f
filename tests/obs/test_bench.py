"""Tests for benchmark history and the perf-trajectory regression gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.bench import (append_history, check_regressions,
                             history_record, load_history, render_gate)

#: The committed trajectory ledger.
LEDGER = Path(__file__).resolve().parents[2] / "results" / \
    "bench_history.jsonl"

ENTRIES = [
    {"name": "rice_encode", "after_s": 0.010, "speedup": 12.0},
    {"name": "kalman_step", "after_s": 0.020, "speedup": 3.5},
]


def _record(after_s: float, sha: str = "abc") -> dict:
    entries = [{"name": "rice_encode", "after_s": after_s,
                "speedup": 10.0}]
    return history_record(entries, cpus=4, sha=sha)


class TestHistoryLedger:
    def test_record_shape_and_config_key(self):
        record = history_record(ENTRIES, cpus=8, sha="deadbee")
        assert record["sha"] == "deadbee"
        assert record["config"] == {"cpus": 8}
        assert record["kernels"]["rice_encode"]["after_s"] == 0.010

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "bench_history.jsonl"
        first = _record(0.010, sha="one")
        second = _record(0.011, sha="two")
        append_history(first, path)
        append_history(second, path)
        loaded = load_history(path)
        assert [r["sha"] for r in loaded] == ["one", "two"]
        assert loaded[0] == first

    def test_missing_ledger_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_corrupt_line_reports_location(self, tmp_path):
        path = tmp_path / "bench_history.jsonl"
        path.write_text('{"sha": "ok"}\nbroken\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            load_history(path)


class TestRegressionGate:
    def test_no_baseline_passes(self):
        current = _record(0.010)
        report = check_regressions(current, history=[])
        assert report["ok"]
        assert report["rows"][0]["status"] == "no-baseline"
        assert "no baseline yet" in render_gate(report)

    def test_within_threshold_passes(self):
        history = [_record(0.010) for _ in range(3)]
        current = _record(0.011)  # 10% slower
        report = check_regressions(current, history)
        assert report["ok"]
        assert report["rows"][0]["status"] == "ok"

    def test_25pct_slowdown_fails(self):
        history = [_record(0.010) for _ in range(3)]
        current = _record(0.0125)
        report = check_regressions(current, history)
        assert not report["ok"]
        assert report["n_regressions"] == 1
        assert report["rows"][0]["ratio"] == 1.25
        rendered = render_gate(report)
        assert "FAIL" in rendered and "[regression]" in rendered

    def test_baseline_is_median_of_window(self):
        # one noisy fast outlier must not poison the baseline
        history = [_record(0.002), _record(0.010), _record(0.010),
                   _record(0.010)]
        current = _record(0.011)
        report = check_regressions(current, history, window=4)
        assert report["rows"][0]["baseline_s"] == 0.010
        assert report["ok"]

    def test_window_ignores_older_samples(self):
        history = [_record(0.001)] * 10 + [_record(0.010)] * 5
        current = _record(0.011)
        report = check_regressions(current, history, window=5)
        assert report["ok"]

    def test_different_config_never_compares(self):
        # The ledger's first four lines predate keying records by CPU
        # count alone: even a new run on their CPU count with their
        # entry names must find no baseline among them.
        legacy = load_history(LEDGER)[:4]
        for old in legacy:
            current = history_record(
                [{"name": name, "after_s": 1e3, "speedup": 1.0}
                 for name in old["kernels"]],
                cpus=old["config"]["cpus"])
            report = check_regressions(current, legacy)
            assert report["ok"]
            assert {row["status"] for row in report["rows"]} == \
                {"no-baseline"}

    def test_current_excluded_from_its_own_baseline_by_identity(self,
                                                                tmp_path):
        path = tmp_path / "bench_history.jsonl"
        for _ in range(3):
            append_history(_record(0.010), path)
        append_history(_record(0.0125), path)
        history = load_history(path)
        report = check_regressions(history[-1], history)
        assert not report["ok"]

    def test_report_is_json_able(self):
        report = check_regressions(_record(0.010), [_record(0.010)])
        assert json.loads(json.dumps(report)) == report


class TestCpusConfigKeying:
    """Regression guard (ISSUE 7 satellite): parallel-engine timings
    scale with the host CPU count, so records taken on hosts with
    different ``cpus`` must never share a baseline — and legacy records
    without the ``cpus`` key must drop out of every baseline rather
    than pollute one."""

    def _cpu_record(self, after_s: float, cpus: int) -> dict:
        entries = [{"name": "run_all_warm_jobs4", "after_s": after_s,
                    "speedup": 3.0}]
        return history_record(entries, cpus=cpus, sha="abc")

    def test_different_cpu_counts_never_share_baselines(self):
        # Five fast samples on a 16-core host must not flag a slower
        # (but locally normal) 1-core run.
        history = [self._cpu_record(0.5, cpus=16) for _ in range(5)]
        report = check_regressions(self._cpu_record(4.0, cpus=1),
                                   history)
        assert report["ok"]
        assert report["rows"][0]["status"] == "no-baseline"

    def test_same_cpu_count_does_compare(self):
        history = [self._cpu_record(0.5, cpus=4) for _ in range(5)]
        report = check_regressions(self._cpu_record(4.0, cpus=4),
                                   history)
        assert not report["ok"]

    def test_legacy_records_without_cpus_are_excluded(self):
        legacy = {"sha": "old",
                  "config": {},  # written before the cpus key
                  "kernels": {"run_all_warm_jobs4":
                              {"after_s": 0.5, "speedup": 3.0}}}
        report = check_regressions(self._cpu_record(4.0, cpus=4),
                                   [legacy] * 5)
        assert report["ok"]
        assert report["rows"][0]["status"] == "no-baseline"


"""Wrong outputs are counted in ``error_rate``; the run still completes."""

import time
from pathlib import Path

import pytest

from bench import runner, sweep, workloads
from bench.__main__ import gate_input
from bench.spec import PAPER_CSVS, RESULTS, load_spec


def _fake_evaluate(flip: str | None):
    """A ``run_child`` stand-in that writes the committed paper CSVs,
    with one byte changed in ``flip``."""

    def run_child(args, log_dir, timeout_s=None, import_profile=False):
        if "--output-dir" not in args:  # the host probe
            return workloads.Child(0, 0.01, 50.0, "", "", time.perf_counter())
        out_dir = Path(args[args.index("--output-dir") + 1])
        for name in PAPER_CSVS:
            data = bytearray((RESULTS / name).read_bytes())
            if name == flip:
                data[-2] ^= 1
            (out_dir / name).write_bytes(bytes(data))
        return workloads.Child(0, 0.01, 50.0, "", "", time.perf_counter())

    return run_child


@pytest.mark.parametrize("flip, error_rate", [(None, 0.0),
                                              ("fig12.csv", 1.0)])
def test_one_byte_csv_change_counts_as_failure(tmp_path, monkeypatch, flip,
                                               error_rate):
    monkeypatch.setattr(workloads, "run_child", _fake_evaluate(flip))
    result = runner.run_workload("paper", 7, 0.0, False, tmp_path)
    assert result["attempted"] == runner.SETUP_REPS + runner.MIN_OPS
    assert result["error_rate"] == error_rate
    assert result["correct"] is (flip is None)


class _FakeServer:
    """Answers in process; ``flip`` corrupts one ladder answer."""

    flip = False

    def __init__(self, server_args, log_dir, import_profile=False):
        self.ready_s = 0.01

    def ask(self, query):
        answer = sweep.answer(*query)
        if self.flip:
            answer[-1][1] += 1  # one more active channel on the last step
        return answer

    def close(self):
        self.rss_mb = 50.0


@pytest.mark.parametrize("flip", [False, True])
def test_flipped_design_answer_counts_as_failure(tmp_path, monkeypatch,
                                                 flip):
    monkeypatch.setattr(_FakeServer, "flip", flip)
    monkeypatch.setattr(workloads, "_Server", _FakeServer)
    monkeypatch.setattr(workloads, "run_child", _fake_evaluate(None))
    result = runner.run_workload("design_sweep", 7, 0.0, False, tmp_path)
    queries = result["attempted"] - runner.SETUP_REPS
    assert queries == runner.MIN_OPS
    assert result["failed"] == (queries if flip else 0)
    assert (result["error_rate"] > 0) is flip


class _DyingServer(_FakeServer):
    """Answers ``ANSWERS`` queries, then stops answering."""

    ANSWERS = 40

    def __init__(self, server_args, log_dir, import_profile=False):
        super().__init__(server_args, log_dir, import_profile)
        self.answered = 0

    def ask(self, query):
        self.answered += 1
        return super().ask(query) if self.answered <= self.ANSWERS else None


def test_server_dying_mid_run_keeps_the_samples_before(tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(workloads, "_Server", _DyingServer)
    monkeypatch.setattr(workloads, "run_child", _fake_evaluate(None))
    result = runner.run_workload("design_sweep", 7, 60.0, False, tmp_path)
    assert len(result["samples"]["op_s"]) == _DyingServer.ANSWERS
    assert result["attempted"] == runner.SETUP_REPS + _DyingServer.ANSWERS + 1
    assert result["failed"] == 1 and result["broken"]
    assert result["end_to_end"]["wall_s"] > 0
    assert gate_input([result], load_spec())["entries"] == []


def test_every_query_has_an_expected_answer():
    expected = workloads.expected_answers()
    assert set(expected) == {sweep.query_key(q) for q in sweep.all_queries()}

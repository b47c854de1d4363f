"""Solver memo tables must be invisible: a cold and a warm process give
the same answers and the same event timeline."""

from __future__ import annotations

import pytest

from repro.accel.schedule import cached_best_schedule
from repro.cli import main
from repro.core import comp_centric, optimizations, partitioning
from repro.core.explorer import explore
from repro.core.optimizations import evaluate_ladder
from repro.link import ber

#: Every memoized pure solver function.
SOLVER_MEMOS = (
    cached_best_schedule,
    comp_centric._workload_profile,
    partitioning._split_candidates,
    optimizations._implant_options,
    ber._solve_ebn0,
)


def clear_solver_memos() -> None:
    for memo in SOLVER_MEMOS:
        memo.cache_clear()


def test_every_memo_has_a_fixed_maxsize():
    for memo in SOLVER_MEMOS:
        assert memo.cache_info().maxsize is not None


@pytest.mark.parametrize("soc_index, n_channels",
                         [(0, 1024), (2, 2048), (4, 4096), (7, 3072)])
def test_memo_warmth_cannot_change_answers(wireless_scaled, soc_index,
                                           n_channels):
    soc = wireless_scaled[soc_index]
    clear_solver_memos()
    cold = (explore(soc, target_channels=n_channels),
            evaluate_ladder(soc, n_channels))
    warm = (explore(soc, target_channels=n_channels),
            evaluate_ladder(soc, n_channels))
    assert warm == cold


def test_warm_rerun_keeps_the_event_timeline(tmp_path, capsys):
    timelines = []
    clear_solver_memos()
    for run in ("cold", "warm"):
        out_dir = tmp_path / run
        assert main(["evaluate", "fig7", "fig12", "frontier", "--seed", "7",
                     "--events", "--quiet",
                     "--output-dir", str(out_dir)]) == 0
        timelines.append((out_dir / "events.jsonl").read_bytes())
    capsys.readouterr()
    cold, warm = timelines
    assert cold
    assert warm == cold

"""Solver memo tables must be invisible: a cold and a warm process give
the same answers and the same event timeline, and the tables stay
small."""

from __future__ import annotations

import pytest

from repro.accel.schedule import cached_best_schedule
from repro.cli import main
from repro.core import comp_centric, explorer
from repro.core.comp_centric import Workload
from repro.core.explorer import explore
from repro.core.optimizations import evaluate_ladder
from repro.dnn.network import Network
from repro.experiments.fig12 import CHANNEL_COUNTS
from repro.link import ber

#: Every memoized pure solver function.
SOLVER_MEMOS = (
    cached_best_schedule,
    comp_centric.workload_profile,
    comp_centric.implant_options,
    explorer._strategy_limits,
    ber._solve_ebn0,
)

#: The target-independent searches ``explore`` reads its limits from.
STRATEGY_SEARCHES = (
    "budget_crossing_channels",
    "max_channels_at_efficiency",
    "_max_channels_compressed",
    "max_channels_event_stream",
    "max_feasible_channels",
    "max_channels_closed_loop",
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


def test_ladder_probes_stay_out_of_the_profile_memo(wireless_scaled):
    # The profile memo keeps whole MAC-profile tuples, so it may hold the
    # ladder's grid targets but none of the n' a bisection probes.
    clear_solver_memos()
    designs = [design for soc in wireless_scaled
               for n_channels in CHANNEL_COUNTS
               for design in evaluate_ladder(soc, n_channels)]
    assert any(0 < d.active_channels < d.n_channels for d in designs)
    memo = comp_centric.workload_profile
    for n_channels in CHANNEL_COUNTS:
        memo(Workload.MLP, n_channels)
    # Looking the targets up added no entry beyond them, so they are all
    # the memo holds.
    assert memo.cache_info().currsize == len(CHANNEL_COUNTS)


def test_design_scan_builds_no_network(wireless_scaled, monkeypatch):
    # Every design-scan profile comes from the layer widths: the Fig. 12
    # grid and explore run with network construction disabled.
    def no_network(*args, **kwargs):
        raise AssertionError("the design scan built a Network")

    clear_solver_memos()
    monkeypatch.setattr(Network, "__init__", no_network)
    try:
        designs = [design for soc in wireless_scaled
                   for n_channels in CHANNEL_COUNTS
                   for design in evaluate_ladder(soc, n_channels)]
        reports = [explore(soc) for soc in wireless_scaled]
    finally:
        clear_solver_memos()
    assert any(0 < d.active_channels < d.n_channels for d in designs)
    assert len(reports) == len(wireless_scaled)


def test_a_new_target_reuses_the_design_limits(wireless_scaled,
                                               monkeypatch):
    # Strategy limits are properties of the design: once one target of
    # a design is explored, another target runs none of the searches and
    # reads the same frontier a cold exploration computes.
    def no_search(*args, **kwargs):
        raise AssertionError("explore re-ran a strategy search")

    for soc in wireless_scaled:
        clear_solver_memos()
        cold = explore(soc, target_channels=8192)
        clear_solver_memos()
        explore(soc, target_channels=2048)
        with monkeypatch.context() as patch:
            for name in STRATEGY_SEARCHES:
                patch.setattr(explorer, name, no_search)
            warm = explore(soc, target_channels=8192)
        assert warm.frontier() == cold.frontier()
        assert warm == cold

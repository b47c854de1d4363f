"""Ablations: one modeling decision varied, its effect on a headline.

Each test varies one choice of the framework and checks the direction
(and rough size) of its effect on a Fig. 7/10/11 frontier:

* pipelined vs non-pipelined MAC scheduling (Eq. 11 vs Eq. 14),
* receiver noise figure (the Fig. 7 calibration knob),
* earliest-layer vs power-optimal partitioning,
* input-window size of the workloads,
* wireless-power-transfer losses applied to the Fig. 10 frontier,
* lossless-compression ratio on the raw-streaming frontier.

EXPERIMENTS.md "Extension results" cites these.
"""

from functools import partial

from repro.accel.schedule import schedule_non_pipelined, schedule_pipelined
from repro.accel.tech import TECH_45NM
from repro.core import comp_centric
from repro.core.comp_centric import Workload, max_feasible_channels
from repro.core.explorer import _max_channels_compressed
from repro.core.qam_design import max_channels_at_efficiency
from repro.dnn.models import build_speech_mlp, speech_mlp_profile
from repro.link.budget import LinkBudget
from repro.link.wpt import InductiveLink


def test_pipelining_stays_within_2x_of_pooled_units(bisc):
    # The best-of-both rule exists because neither schedule dominates a
    # priori; for this workload the pipeline is never more than 2x the
    # pool.
    deadline = 1.0 / bisc.sampling_hz
    for n in (1024, 2048):
        profiles = build_speech_mlp(n).mac_profiles()
        pooled = schedule_non_pipelined(profiles, deadline, TECH_45NM)
        piped = schedule_pipelined(profiles, deadline, TECH_45NM)
        assert pooled is not None and piped is not None
        assert piped.mac_units <= 2 * pooled.mac_units


def test_lower_noise_figure_buys_more_channels(bisc):
    # Fig. 7's 20%-efficiency frontier shifts by < 2x across plausible
    # noise figures.
    values = [max_channels_at_efficiency(bisc, 0.20,
                                         LinkBudget(noise_figure_db=nf))
              for nf in (5.0, 7.0, 9.0)]
    assert values == sorted(values, reverse=True)
    assert values[0] <= 2 * values[-1]


def test_optimal_partition_never_trails_earliest(bisc):
    earliest = max_feasible_channels(bisc, Workload.MLP, rule="earliest")
    optimal = max_feasible_channels(bisc, Workload.MLP, rule="optimal")
    assert optimal >= earliest


def test_input_window_shrinks_mlp_frontier_sublinearly(bisc, monkeypatch):
    # Doubling the input window widens the first layer, so the MLP
    # frontier shrinks, but by less than half: later layers dominate at
    # scale.  The candidate table is memoized per (workload, n), so it is
    # cleared around every profile swap.
    def frontier(window: int) -> int:
        monkeypatch.setitem(comp_centric._PROFILES, Workload.MLP,
                            partial(speech_mlp_profile, window=window))
        comp_centric.implant_options.cache_clear()
        return max_feasible_channels(bisc, Workload.MLP)

    try:
        results = {window: frontier(window) for window in (2, 4)}
    finally:
        comp_centric.implant_options.cache_clear()
    assert results[4] < results[2]
    assert results[4] > results[2] / 2


def test_wpt_losses_shrink_mlp_frontier(bisc):
    # Folding the WPT receive chain into the budget leaves only eta_rx
    # of the thermal budget as useful power.
    wired = max_feasible_channels(bisc, Workload.MLP)
    eta = InductiveLink().implant_chain_efficiency
    derated, n = 0, 64
    while n <= 8192:
        point = comp_centric.evaluate_comp_centric(bisc, Workload.MLP, n)
        if point.total_power_w <= point.budget_w * eta:
            derated = n
        elif derated:
            break
        n += 64
    assert derated < wired


def test_compression_ratio_grows_streaming_frontier(bisc):
    values = [_max_channels_compressed(bisc, ratio, 2e-7)
              for ratio in (1.0, 1.5, 2.0, 3.0)]
    assert values == sorted(values)

"""Tests for the closed-loop BCI analysis."""

import math

import pytest

from repro.core import closed_loop
from repro.core.closed_loop import (
    BRAIN_REACTION_TIME_S,
    StimulationConfig,
    evaluate_closed_loop,
    max_channels_closed_loop,
)
from repro.core.comp_centric import Workload
from repro.dnn.models import (
    build_speech_dncnn,
    build_speech_mlp,
    speech_mlp_profile,
)


def mlp(n_channels):
    """MAC profiles of the speech MLP decoder at a channel count."""
    return speech_mlp_profile(n_channels).profiles


class TestStimulation:
    def test_power_formula(self):
        config = StimulationConfig(n_electrodes=1, pulse_rate_hz=100.0,
                                   amplitude_a=100e-6,
                                   pulse_width_s=200e-6,
                                   electrode_impedance_ohm=10e3,
                                   driver_overhead=1.0)
        # E = I^2 R t * 2 = 1e-8 * 1e4 * 2e-4 * 2 = 4e-8 J; x100 Hz = 4 uW.
        assert config.power_w == pytest.approx(4e-6)

    def test_power_scales_with_electrodes(self):
        one = StimulationConfig(n_electrodes=1)
        many = StimulationConfig(n_electrodes=32)
        assert many.power_w == pytest.approx(32 * one.power_w)

    def test_stim_power_is_microwatts(self):
        # Typical cortical stimulation is uW-mW scale — far below the
        # sensing budget.
        assert 1e-6 < StimulationConfig().power_w < 1e-3

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            StimulationConfig(n_electrodes=0)
        with pytest.raises(ValueError):
            StimulationConfig(driver_overhead=0.5)


class TestClosedLoop:
    def test_reaction_time_constant(self):
        assert BRAIN_REACTION_TIME_S == pytest.approx(0.18)

    def test_loop_feasible_at_1024(self, bisc):
        decoder = mlp(1024)
        point = evaluate_closed_loop(bisc, decoder, 1024)
        assert point.meets_deadline
        assert point.feasible

    def test_loop_latency_components(self, bisc):
        decoder = mlp(1024)
        point = evaluate_closed_loop(bisc, decoder, 1024, window_samples=8)
        assert point.acquisition_s == pytest.approx(8 / bisc.sampling_hz)
        assert point.loop_latency_s == pytest.approx(
            point.acquisition_s + point.decode_s + point.stimulation_s)

    def test_loose_deadline_needs_fewer_macs_than_fig10(self, bisc):
        # Decoding once per decision (0.18 s budget) is far cheaper than
        # the per-sample real-time constraint of Fig. 10.
        from repro.core.comp_centric import Workload, evaluate_comp_centric
        decoder = mlp(1024)
        loop = evaluate_closed_loop(bisc, decoder, 1024)
        streaming = evaluate_comp_centric(bisc, Workload.MLP, 1024)
        assert loop.comp_power_w < 0.05 * streaming.comp_power_w

    def test_tight_deadline_fails(self, bisc):
        decoder = mlp(1024)
        point = evaluate_closed_loop(bisc, decoder, 1024,
                                     deadline_s=5e-3)
        # 5 ms minus acquisition and stimulation leaves nothing.
        assert not point.meets_deadline

    def test_infinite_decode_when_budget_consumed(self, bisc):
        decoder = mlp(1024)
        point = evaluate_closed_loop(
            bisc, decoder, 1024, window_samples=10_000,
            deadline_s=0.18)  # acquisition alone exceeds the deadline
        assert math.isinf(point.decode_s)
        assert not point.feasible

    def test_no_transmitter_power_in_loop(self, bisc):
        decoder = mlp(1024)
        point = evaluate_closed_loop(bisc, decoder, 1024)
        assert point.total_power_w == pytest.approx(
            point.sensing_power_w + point.comp_power_w
            + point.stim_power_w)

    def test_scales_further_than_streaming_dnn(self, bisc):
        # With the loose per-decision deadline the loop stays feasible
        # beyond the Fig. 10 streaming limit.
        from repro.core.comp_centric import Workload, max_feasible_channels
        stream_limit = max_feasible_channels(bisc, Workload.MLP)
        decoder = mlp(stream_limit + 1024)
        point = evaluate_closed_loop(bisc, decoder, stream_limit + 1024)
        assert point.feasible

    def test_rejects_invalid(self, bisc):
        decoder = mlp(128)
        with pytest.raises(ValueError):
            evaluate_closed_loop(bisc, decoder, 0)
        with pytest.raises(ValueError):
            evaluate_closed_loop(bisc, decoder, 128, deadline_s=0.0)


def _reference_scan(soc, build_network, step=256, n_limit=16384,
                    **kwargs):
    """The closed-loop scan over freshly built networks, evaluated
    through the module attribute so a patched evaluator sees it."""
    best = 0
    for n in range(step, n_limit + 1, step):
        profiles = build_network(n).profile().profiles
        if closed_loop.evaluate_closed_loop(soc, profiles, n,
                                            **kwargs).feasible:
            best = n
        elif best:
            break
    return best


class TestMaxChannelsClosedLoop:
    @pytest.mark.parametrize("workload, builder", [
        (Workload.MLP, build_speech_mlp),
        (Workload.DNCNN, build_speech_dncnn),
    ])
    def test_matches_scan_over_built_networks(self, wireless_scaled,
                                              workload, builder):
        for soc in wireless_scaled:
            assert (max_channels_closed_loop(soc, workload)
                    == _reference_scan(soc, builder)), soc.name

    def test_forwards_evaluation_options(self, bisc):
        options = dict(window_samples=64, deadline_s=0.05)
        assert (max_channels_closed_loop(bisc, step=512, **options)
                == _reference_scan(bisc, build_speech_mlp, step=512,
                                   **options))

    def test_counts_one_evaluation_per_scanned_point(self, bisc,
                                                     monkeypatch):
        calls = []
        evaluate = closed_loop.evaluate_closed_loop

        def counted(*args, **kwargs):
            calls.append(args[2])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(closed_loop, "evaluate_closed_loop", counted)
        max_channels_closed_loop(bisc, step=1024)
        scan = list(calls)
        calls.clear()
        _reference_scan(bisc, build_speech_mlp, step=1024)
        assert scan == calls != []

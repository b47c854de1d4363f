"""Tests for the event-driven (spike-only) streaming dataflow."""

import pytest

from repro.core.event_stream import (
    EventStreamConfig,
    evaluate_event_stream,
    max_channels_event_stream,
)


class TestConfig:
    def test_bits_per_event(self):
        config = EventStreamConfig(channel_id_bits=16, timestamp_bits=10,
                                   shape_bits=6)
        assert config.bits_per_event == 32

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            EventStreamConfig(spike_rate_hz=-1.0)
        with pytest.raises(ValueError):
            EventStreamConfig(channel_id_bits=0)


class TestEvaluation:
    def test_sparse_population_slashes_data_rate(self, bisc):
        point = evaluate_event_stream(bisc, 1024)
        # 10 Hz x 26 b/event vs 10 b x 8 kHz raw.
        assert point.data_reduction > 100

    def test_reduction_matches_formula(self, bisc):
        config = EventStreamConfig(spike_rate_hz=20.0)
        point = evaluate_event_stream(bisc, 2048, config)
        expected = (bisc.sample_bits * bisc.sampling_hz
                    / (20.0 * config.bits_per_event))
        assert point.data_reduction == pytest.approx(expected)

    def test_comm_power_far_below_raw(self, bisc):
        point = evaluate_event_stream(bisc, 1024)
        raw_comm = (point.raw_throughput_bps
                    * bisc.implied_energy_per_bit_j)
        assert point.comm_power_w < raw_comm / 50

    def test_detector_power_modest(self, bisc):
        point = evaluate_event_stream(bisc, 1024)
        assert point.detector_power_w < 0.2 * point.sensing_power_w

    def test_total_power_is_sum(self, bisc):
        point = evaluate_event_stream(bisc, 1024)
        assert point.total_power_w == pytest.approx(
            point.sensing_power_w + point.detector_power_w
            + point.comm_power_w)

    def test_rejects_non_positive_channels(self, bisc):
        with pytest.raises(ValueError):
            evaluate_event_stream(bisc, 0)


class TestScaling:
    def test_event_streaming_outscales_raw(self, wireless_scaled):
        # Event streaming pushes every SoC far beyond the raw-streaming
        # crossing, because the comm term nearly vanishes.
        from repro.core.comm_centric import (
            DesignHypothesis,
            budget_crossing_channels,
        )
        for soc in wireless_scaled:
            raw_cross = budget_crossing_channels(
                soc, DesignHypothesis.HIGH_MARGIN)
            event_max = max_channels_event_stream(soc, n_limit=1 << 16)
            assert event_max == 0 or event_max > raw_cross, soc.name

    def test_busy_population_can_exceed_raw(self, bisc):
        # Above the break-even rate r* = d * f / bits_per_event the event
        # stream is *worse* than raw.
        rate = (bisc.sample_bits * bisc.sampling_hz
                / EventStreamConfig().bits_per_event)
        busy = EventStreamConfig(spike_rate_hz=rate * 2)
        point = evaluate_event_stream(bisc, 1024, busy)
        assert point.data_reduction < 1.0

    def test_max_channels_monotone_in_spike_rate(self, neuralink):
        sparse = max_channels_event_stream(
            neuralink, EventStreamConfig(spike_rate_hz=5.0),
            n_limit=1 << 16)
        busy = max_channels_event_stream(
            neuralink, EventStreamConfig(spike_rate_hz=500.0),
            n_limit=1 << 16)
        assert busy <= sparse

"""Integration tests chaining the extension substrates end to end."""

import numpy as np
import pytest

from repro.compress.delta import quantize
from repro.compress.pipeline import NeuralCompressor
from repro.compress.rice import PackedBits
from repro.core.event_stream import EventStreamConfig, evaluate_event_stream
from repro.core.explorer import explore
from repro.core.comm_centric import DesignHypothesis, evaluate_comm_centric
from repro.core.comp_centric import Workload, evaluate_comp_centric
from repro.core.qam_design import evaluate_qam_design
from repro.decoders.spikesort import SpikeDetector
from repro.link.packetizer import Packetizer
from repro.signals.lfp import synthesize_ecog
from repro.signals.spikes import (
    biphasic_spike_template,
    poisson_spike_train,
    render_spike_waveform,
)


class TestCompressedStreamPipeline:
    def test_compress_then_packetize_round_trip(self, rng):
        analog = 0.2 * synthesize_ecog(4, 0.5, 2000.0, rng, noise_rms=0.05)
        codes = quantize(analog, bits=10)
        codec = NeuralCompressor(sample_bits=10)
        packetizer = Packetizer(payload_bytes=64, sample_bits=16)

        for channel in codes:
            stream, k = codec.encode_channel(channel)
            # Frame the packed payload bytes as 16-bit words.
            payload = stream.payload
            if payload.size % 2:
                payload = np.append(payload, np.uint8(0))
            words = (payload.astype(np.int32).reshape(-1, 2)
                     @ np.array([256, 1])) - (1 << 15)
            recovered_words = packetizer.depacketize(
                packetizer.packetize(words.astype(np.int32)))
            shifted = np.asarray(recovered_words, dtype=np.int64) + (1 << 15)
            recovered_payload = np.column_stack(
                [shifted >> 8, shifted & 0xFF]).astype(np.uint8).ravel()
            n_payload = stream.payload.size
            assert np.array_equal(recovered_payload[:n_payload],
                                  stream.payload)
            recovered = codec.decode_channel(
                PackedBits(recovered_payload[:n_payload], stream.n_bits),
                k, channel.size)
            np.testing.assert_array_equal(recovered, channel)

    def test_measured_ratio_feeds_explorer(self, rng, bisc):
        analog = 0.2 * synthesize_ecog(8, 1.0, 2000.0, rng, noise_rms=0.05)
        codes = quantize(analog, bits=10)
        ratio = NeuralCompressor(sample_bits=10).analyze(codes).ratio
        report = explore(bisc, target_channels=2048,
                         compression_ratio=ratio)
        compressed = next(o for o in report.outcomes
                          if "compressed" in o.strategy)
        raw = next(o for o in report.outcomes
                   if o.strategy == "raw OOK (high margin)")
        assert compressed.power_ratio_at_target < \
            raw.power_ratio_at_target


class TestEventPipeline:
    def test_detected_rate_drives_event_model(self, rng, bisc):
        # Measure the spike rate with the detector substrate, then feed
        # it into the event-stream analysis.
        fs, duration = 8e3, 4.0
        n = int(fs * duration)
        template = biphasic_spike_template(fs, amplitude=8.0)
        true_rate = 15.0
        spikes = np.flatnonzero(poisson_spike_train(
            true_rate, duration, fs, rng, refractory_s=3e-3))
        signal = rng.standard_normal(n) + render_spike_waveform(
            spikes, template, n)
        detected = SpikeDetector().detect(signal)
        measured_rate = len(detected) / duration
        assert measured_rate == pytest.approx(true_rate, rel=0.4)

        config = EventStreamConfig(spike_rate_hz=measured_rate)
        point = evaluate_event_stream(bisc, 1024, config)
        assert point.data_reduction > 50


class TestExplorerConsistency:
    def test_explorer_matches_individual_evaluators(self, bisc):
        report = explore(bisc, target_channels=2048)
        by_name = {o.strategy: o for o in report.outcomes}

        naive = evaluate_comm_centric(bisc, 2048, DesignHypothesis.NAIVE)
        assert by_name["raw OOK (naive)"].power_ratio_at_target == \
            pytest.approx(naive.power_ratio)

        margin = evaluate_comm_centric(bisc, 2048,
                                       DesignHypothesis.HIGH_MARGIN)
        assert by_name["raw OOK (high margin)"].power_ratio_at_target == \
            pytest.approx(margin.power_ratio)

        qam = evaluate_qam_design(bisc, 2048)
        assert by_name["QAM @ 20%"].power_ratio_at_target == \
            pytest.approx(qam.min_efficiency / 0.20)

        mlp = evaluate_comp_centric(bisc, Workload.MLP, 2048)
        assert by_name["on-implant mlp"].power_ratio_at_target == \
            pytest.approx(mlp.power_ratio)

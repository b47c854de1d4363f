"""Tests for the delta + Rice compression substrate."""

import numpy as np
import pytest

from repro.compress.delta import delta_decode, delta_encode, quantize
from repro.compress.pipeline import (
    CompressionResult,
    NeuralCompressor,
    compression_ratio,
)
from repro.compress.rice import (
    encoded_length_bits,
    optimal_rice_parameter,
    rice_decode,
    rice_encode,
    unzigzag,
    zigzag,
)
from repro.signals.lfp import synthesize_ecog


def reconstruct(codes: np.ndarray, bits: int) -> np.ndarray:
    """Mid-points of the unit-full-scale mid-rise cells ``codes`` name."""
    return (codes + 0.5) * (2.0 / 2 ** bits)


def measured_sqnr_db(signal: np.ndarray, bits: int) -> float:
    """Signal-to-quantization-noise ratio of a quantize/reconstruct
    round trip at unit full scale."""
    noise = signal - reconstruct(quantize(signal, bits), bits)
    return 10.0 * np.log10(np.mean(signal ** 2) / np.mean(noise ** 2))


class TestQuantize:
    def test_code_range(self):
        signal = np.linspace(-2.0, 2.0, 101)
        codes = quantize(signal, bits=8, full_scale=1.0)
        assert codes.min() >= -128
        assert codes.max() <= 127

    def test_zero_maps_to_zero_cell(self):
        assert quantize(np.array([0.0]), bits=8)[0] == 0

    def test_clipping(self):
        codes = quantize(np.array([10.0, -10.0]), bits=4, full_scale=1.0)
        assert codes[0] == 7
        assert codes[1] == -8

    def test_round_trip_error_bounded_by_lsb(self, rng):
        signal = rng.uniform(-0.99, 0.99, size=1000)
        bits = 10
        recon = reconstruct(quantize(signal, bits), bits)
        lsb = 2.0 / 2 ** bits
        assert np.max(np.abs(signal - recon)) <= lsb / 2 + 1e-12

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            quantize(np.array([0.0]), bits=0)


class TestSqnr:
    def test_tracks_ideal_for_sinusoid(self, rng):
        t = np.linspace(0, 1, 100000)
        signal = 0.999 * np.sin(2 * np.pi * 123.0 * t)
        for bits in (6, 8, 10):
            # Textbook 6.02 d + 1.76 dB for a full-scale sinusoid.
            ideal = 6.02 * bits + 1.76
            assert measured_sqnr_db(signal, bits) == pytest.approx(
                ideal, abs=1.5)

    def test_more_bits_more_sqnr(self, rng):
        signal = rng.uniform(-1, 1, 10000)
        assert (measured_sqnr_db(signal, 12) > measured_sqnr_db(signal, 8)
                > measured_sqnr_db(signal, 4))


class TestDelta:
    def test_round_trip_1d(self, rng):
        codes = rng.integers(-512, 512, 200)
        np.testing.assert_array_equal(delta_decode(delta_encode(codes)),
                                      codes)

    def test_round_trip_2d(self, rng):
        codes = rng.integers(-512, 512, (8, 100))
        np.testing.assert_array_equal(delta_decode(delta_encode(codes)),
                                      codes)

    def test_smooth_signal_has_small_deltas(self):
        codes = np.arange(0, 1000, 3)
        deltas = delta_encode(codes)
        assert np.all(np.abs(deltas[1:]) == 3)

    def test_rejects_3d(self, rng):
        with pytest.raises(ValueError):
            delta_encode(rng.integers(0, 2, (2, 2, 2)))


class TestZigzag:
    def test_known_mapping(self):
        values = np.array([0, -1, 1, -2, 2])
        np.testing.assert_array_equal(zigzag(values), [0, 1, 2, 3, 4])

    def test_round_trip(self, rng):
        values = rng.integers(-1000, 1000, 500)
        np.testing.assert_array_equal(unzigzag(zigzag(values)), values)


class TestRice:
    def test_round_trip(self, rng):
        for k in (0, 2, 5):
            values = rng.integers(-100, 100, 64)
            bits = rice_encode(values, k)
            decoded = rice_decode(bits, k, 64)
            np.testing.assert_array_equal(decoded, values)

    def test_encoded_length_matches_stream(self, rng):
        values = rng.integers(-50, 50, 32)
        for k in (0, 1, 3, 6):
            assert len(rice_encode(values, k)) == encoded_length_bits(
                values, k)

    def test_optimal_parameter_is_optimal(self, rng):
        values = rng.integers(-200, 200, 128)
        k_star = optimal_rice_parameter(values)
        best = encoded_length_bits(values, k_star)
        for k in range(12):
            assert best <= encoded_length_bits(values, k)

    def test_small_values_prefer_small_k(self, rng):
        small = rng.integers(-2, 3, 256)
        large = rng.integers(-2000, 2000, 256)
        assert (optimal_rice_parameter(small)
                < optimal_rice_parameter(large))

    def test_truncated_stream_raises(self):
        with pytest.raises(ValueError):
            rice_decode("111", 0, 1)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            rice_encode(np.array([1]), -1)


class TestNeuralCompressor:
    def _ecog_codes(self, rng, channels=8, samples=2000):
        analog = synthesize_ecog(channels, samples / 2000.0, 2000.0, rng,
                                 noise_rms=0.05)
        return quantize(analog / (4 * np.abs(analog).max()), bits=10)

    def test_neural_data_compresses(self, rng):
        codes = self._ecog_codes(rng)
        result = NeuralCompressor(sample_bits=10).analyze(codes)
        assert isinstance(result, CompressionResult)
        assert result.ratio > 1.5  # oversampled field data is redundant

    def test_white_noise_barely_compresses(self, rng):
        codes = rng.integers(-512, 512, (4, 2000)).astype(np.int32)
        result = NeuralCompressor(sample_bits=10).analyze(codes)
        assert result.ratio < 1.2

    def test_channel_round_trip(self, rng):
        codes = self._ecog_codes(rng, channels=1)[0]
        codec = NeuralCompressor(sample_bits=10)
        bits, k = codec.encode_channel(codes)
        recovered = codec.decode_channel(bits, k, codes.size)
        np.testing.assert_array_equal(recovered, codes)

    def test_codec_power_linear_in_channels(self):
        codec = NeuralCompressor()
        assert codec.codec_power_w(8e3, 2048) == pytest.approx(
            2 * codec.codec_power_w(8e3, 1024))

    def test_codec_power_is_small(self):
        # The codec must cost far less than the comm power it saves:
        # sub-mW at 1024 channels.
        power = NeuralCompressor().codec_power_w(8e3, 1024)
        assert power < 1e-3

    def test_ratio_helper_validates(self):
        with pytest.raises(ValueError):
            compression_ratio(0, 10)
        assert compression_ratio(100, 50) == 2.0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            NeuralCompressor(sample_bits=0)
        with pytest.raises(ValueError):
            NeuralCompressor(ops_per_sample=-1.0)

"""Tests for ADC quantization and SQNR."""

import numpy as np
import pytest

from repro.ni.adc import AdcModel, quantize


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
            ideal = AdcModel(bits=bits).ideal_sqnr_db()
            assert measured_sqnr_db(signal, bits) == pytest.approx(
                ideal, abs=1.5)

    def test_more_bits_more_sqnr(self, rng):
        signal = rng.uniform(-1, 1, 10000)
        assert (measured_sqnr_db(signal, 12) > measured_sqnr_db(signal, 8)
                > measured_sqnr_db(signal, 4))


class TestAdcModel:
    def test_bits_per_second(self):
        adc = AdcModel(bits=10, sampling_rate_hz=8e3)
        assert adc.bits_per_second_per_channel == pytest.approx(80e3)

    def test_convert_shape_preserved(self, rng):
        adc = AdcModel(bits=10)
        data = rng.standard_normal((4, 100))
        assert adc.convert(data).shape == (4, 100)

    def test_ideal_sqnr(self):
        assert AdcModel(bits=10).ideal_sqnr_db() == pytest.approx(61.96)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            AdcModel(bits=0)
        with pytest.raises(ValueError):
            AdcModel(sampling_rate_hz=0.0)

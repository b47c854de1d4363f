"""Tests for modulation schemes (bit <-> symbol round trips, energy)."""

import numpy as np
import pytest

from repro.link.modulation import (
    BPSK,
    MQAM,
    OOK,
    QPSK,
)

ALL_SCHEMES = [OOK(), BPSK(), QPSK(), MQAM(4), MQAM(6), MQAM(8)]


class TestRoundTrips:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES,
                             ids=lambda s: s.name)
    def test_noiseless_round_trip(self, scheme, rng):
        n = 120 * scheme.bits_per_symbol
        bits = rng.integers(0, 2, size=n).astype(np.int8)
        recovered = scheme.demodulate(scheme.modulate(bits))
        np.testing.assert_array_equal(recovered, bits)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES,
                             ids=lambda s: s.name)
    def test_unit_energy_per_bit(self, scheme, rng):
        n = 4000 * scheme.bits_per_symbol
        bits = rng.integers(0, 2, size=n).astype(np.int8)
        symbols = scheme.modulate(bits)
        energy_per_bit = np.mean(np.abs(symbols) ** 2) / \
            scheme.bits_per_symbol * symbols.size
        energy_per_bit /= symbols.size
        assert energy_per_bit == pytest.approx(1.0 / 1.0, rel=0.05)


class TestValidation:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BPSK().modulate(np.array([0, 1, 2]))

    def test_qam_requires_multiple_of_order(self):
        with pytest.raises(ValueError):
            MQAM(4).modulate(np.array([0, 1, 1]))

    def test_mqam_rejects_odd_order(self):
        with pytest.raises(ValueError):
            MQAM(3)

    def test_mqam_rejects_order_below_two(self):
        with pytest.raises(ValueError):
            MQAM(0)


class TestNames:
    def test_qam_name(self):
        assert MQAM(4).name == "16-QAM"

    def test_qpsk_name(self):
        assert QPSK().name == "QPSK"

    def test_gray_mapping_minimizes_neighbor_distance(self, rng):
        # Adjacent constellation levels must differ by exactly one bit.
        scheme = MQAM(4)
        bits = np.array([[b0, b1, 0, 0]
                         for b0 in (0, 1) for b1 in (0, 1)]).reshape(-1)
        symbols = scheme.modulate(bits)
        reals = np.sort(np.unique(np.round(symbols.real, 9)))
        assert reals.size == 4  # 4 I-levels for 16-QAM

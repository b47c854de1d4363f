"""Monte-Carlo validation of the closed-form BER curves.

These tests are the independent check that the analytical curves the
MINDFUL power analysis relies on are implemented correctly: simulated BER
at moderate Eb/N0 must track theory.
"""

import numpy as np
import pytest

from repro.link.channel import AwgnChannel, measure_ber_sweep
from repro.link.modulation import BPSK, MQAM, OOK, QPSK


def one_point_ber(scheme, ebn0_db, n_bits, rng):
    """Monte-Carlo BER at one Eb/N0: a one-point sweep."""
    return float(measure_ber_sweep(scheme, [ebn0_db], n_bits, rng=rng)[0])


class TestAwgnChannel:
    def test_noise_variance(self, rng):
        channel = AwgnChannel(ebn0_linear=4.0, rng=rng)
        symbols = np.zeros(200000, dtype=complex)
        received = channel.transmit(symbols)
        # Per complex sample variance = N0 = 1/ebn0.
        assert np.var(received.real) + np.var(received.imag) == \
            pytest.approx(0.25, rel=0.05)

    def test_rejects_bad_ebn0(self, rng):
        with pytest.raises(ValueError):
            AwgnChannel(ebn0_linear=0.0, rng=rng)


class TestMeasuredVsTheory:
    @pytest.mark.parametrize("scheme,ebn0_db", [
        (BPSK(), 4.0),
        (OOK(), 7.0),
        (QPSK(), 4.0),
        (MQAM(4), 8.0),
    ], ids=["bpsk", "ook", "qpsk", "16qam"])
    def test_simulation_tracks_theory(self, scheme, ebn0_db, rng):
        measured = one_point_ber(scheme, ebn0_db, n_bits=400_000, rng=rng)
        theory = scheme.theoretical_ber(10 ** (ebn0_db / 10.0))
        assert measured == pytest.approx(theory, rel=0.25)

    def test_ber_improves_with_ebn0(self, rng):
        low = one_point_ber(BPSK(), 2.0, 100_000, rng)
        high = one_point_ber(BPSK(), 8.0, 100_000, rng)
        assert high < low

    def test_high_snr_is_error_free_at_this_scale(self, rng):
        assert one_point_ber(BPSK(), 14.0, 50_000, rng) == 0.0

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            one_point_ber(MQAM(4), 5.0, 3, rng)


class TestBerSweep:
    def test_sweep_is_deterministic_for_fixed_seed(self):
        grid = np.linspace(2.0, 10.0, 5)
        a = measure_ber_sweep(MQAM(4), grid, 100_000,
                              rng=np.random.default_rng(9))
        b = measure_ber_sweep(MQAM(4), grid, 100_000,
                              rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_sweep_tracks_per_point_measurements(self):
        grid = np.linspace(3.0, 9.0, 4)
        swept = measure_ber_sweep(BPSK(), grid, 200_000,
                                  rng=np.random.default_rng(5))
        for point, ber in zip(grid, swept):
            solo = one_point_ber(BPSK(), float(point), 200_000,
                               rng=np.random.default_rng(5))
            assert ber == pytest.approx(solo, abs=2e-3)

    def test_sweep_monotone_in_ebn0(self):
        grid = np.array([2.0, 6.0, 10.0])
        swept = measure_ber_sweep(BPSK(), grid, 300_000,
                                  rng=np.random.default_rng(1))
        assert swept[0] > swept[1] > swept[2]

    def test_sweep_chunking_preserves_the_estimate(self):
        # Chunking changes which random draws land where, so the
        # estimates are statistically — not bitwise — equivalent.
        grid = np.array([4.0, 8.0])
        whole = measure_ber_sweep(MQAM(4), grid, 256_000,
                                  rng=np.random.default_rng(2))
        chunked = measure_ber_sweep(MQAM(4), grid, 256_000,
                                    rng=np.random.default_rng(2),
                                    chunk_bits=32_000)
        np.testing.assert_allclose(whole, chunked, rtol=0.3, atol=2e-4)

    def test_sweep_rejects_bad_input(self):
        with pytest.raises(ValueError):
            measure_ber_sweep(BPSK(), np.array([]), 1000)
        with pytest.raises(ValueError):
            measure_ber_sweep(MQAM(4), np.array([5.0]), 3)

"""Tests for the ARQ link-layer protocol."""

import math

import numpy as np
import pytest

from repro.link.modulation import BPSK, QPSK
from repro.link.protocol import (
    effective_goodput,
    expected_transmissions,
    packet_success_probability,
    simulate_arq,
)


class TestAnalytics:
    def test_success_probability(self):
        assert packet_success_probability(0.0, 100) == 1.0
        assert packet_success_probability(0.01, 100) == pytest.approx(
            0.99 ** 100)

    def test_expected_transmissions_geometric(self):
        p = packet_success_probability(1e-3, 512)
        assert expected_transmissions(1e-3, 512) == pytest.approx(1 / p)

    def test_retry_cap_truncates(self):
        unlimited = expected_transmissions(0.01, 512)
        capped = expected_transmissions(0.01, 512, max_retries=1)
        assert capped < unlimited
        assert capped <= 2.0

    def test_clean_channel_single_transmission(self):
        assert expected_transmissions(0.0, 1000) == 1.0

    def test_goodput_below_raw_rate(self):
        goodput = effective_goodput(100e6, 1e-5, 512, 32)
        assert goodput < 100e6

    def test_goodput_collapses_at_high_ber(self):
        clean = effective_goodput(100e6, 1e-6, 512, 32)
        dirty = effective_goodput(100e6, 1e-2, 512, 32)
        assert dirty < 0.1 * clean

    def test_infinite_at_ber_one_limit(self):
        assert math.isinf(expected_transmissions(0.99, 10_000))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            packet_success_probability(-0.1, 10)
        with pytest.raises(ValueError):
            packet_success_probability(0.1, 0)
        with pytest.raises(ValueError):
            effective_goodput(0.0, 0.1, 10, 2)


class TestSimulation:
    def test_clean_link_no_retransmissions(self, rng):
        codes = rng.integers(-512, 512, 256).astype(np.int32)
        result = simulate_arq(codes, BPSK(), ebn0_db=15.0, rng=rng)
        assert result.dropped == 0
        assert result.mean_transmissions == pytest.approx(1.0)

    def test_marginal_link_retransmits(self, rng):
        codes = rng.integers(-512, 512, 256).astype(np.int32)
        result = simulate_arq(codes, BPSK(), ebn0_db=6.0, rng=rng)
        assert result.mean_transmissions > 1.05

    def test_simulation_tracks_theory(self, rng):
        from repro.link.ber import ber_bpsk
        codes = rng.integers(-512, 512, 2048).astype(np.int32)
        ebn0_db = 6.5
        result = simulate_arq(codes, BPSK(), ebn0_db=ebn0_db, rng=rng,
                              payload_bytes=32)
        ber = ber_bpsk(10 ** (ebn0_db / 10))
        packet_bits = (32 + 4) * 8
        expected = expected_transmissions(ber, packet_bits)
        assert result.mean_transmissions == pytest.approx(expected,
                                                          rel=0.3)

    def test_hopeless_link_drops_packets(self, rng):
        codes = rng.integers(-512, 512, 64).astype(np.int32)
        result = simulate_arq(codes, BPSK(), ebn0_db=-5.0, rng=rng,
                              max_retries=2)
        assert result.dropped > 0

    def test_qpsk_works_with_padding(self, rng):
        codes = rng.integers(-512, 512, 128).astype(np.int32)
        result = simulate_arq(codes, QPSK(), ebn0_db=15.0, rng=rng,
                              payload_bytes=21)  # odd size forces padding
        assert result.dropped == 0

    def test_rejects_negative_retries(self, rng):
        with pytest.raises(ValueError):
            simulate_arq(np.zeros(4, dtype=np.int32), BPSK(), 10.0, rng,
                         max_retries=-1)

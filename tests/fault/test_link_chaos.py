"""Property-style chaos tests for the lossy link receive path."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan, LinkFaults, default_chaos_plan
from repro.link.packetizer import Packet, Packetizer
from repro.link.protocol import FaultedArqReport, simulate_arq_with_faults


def _ramp(n: int = 1024, sample_bits: int = 10) -> np.ndarray:
    lo, hi = -(1 << (sample_bits - 1)), (1 << (sample_bits - 1)) - 1
    return (np.arange(n, dtype=np.int64) % (hi - lo + 1) + lo).astype(
        np.int32)


class TestLossyRoundTripProperty:
    @pytest.mark.parametrize("seed", range(12))
    def test_damaged_stream_never_raises_and_accounting_balances(
            self, seed):
        codes = _ramp(600)  # not the full code range: isin is meaningful
        packetizer = Packetizer(payload_bytes=32)
        raw = [p.to_bytes() for p in packetizer.packetize(codes)]
        injector = FaultInjector(default_chaos_plan(seed=seed))
        damaged = injector.inject_packet_stream(raw)

        recovered, report = packetizer.depacketize_lossy(damaged)

        assert report.received == len(damaged)
        assert (report.accepted + report.crc_failures + report.malformed
                + report.duplicates) == report.received
        assert recovered.size <= codes.size
        assert recovered.dtype == codes.dtype
        # Every recovered sample is a value the transmitter sent.
        assert np.isin(recovered, codes).all()

    def test_disabled_faults_round_trip_exactly(self):
        codes = _ramp()
        packetizer = Packetizer(payload_bytes=32)
        raw = [p.to_bytes() for p in packetizer.packetize(codes)]
        injector = FaultInjector(FaultPlan(seed=7))  # all rates zero

        stream = injector.inject_packet_stream(raw)
        recovered, report = packetizer.depacketize_lossy(stream)

        assert stream == raw
        np.testing.assert_array_equal(recovered, codes)
        assert report.to_dict() == {
            "accepted": len(raw), "crc_failures": 0, "duplicates": 0,
            "malformed": 0, "missing": 0, "received": len(raw),
            "reordered": 0, "trailing_bytes_dropped": 0}
        assert injector.counters["injected"] == 0


class TestCrcBurstDetection:
    def test_crc16_catches_every_burst_up_to_16_bits(self):
        """CRC-16 detects all burst errors no longer than its width;
        flip_burst stays within that bound, so a damaged packet must
        never pass validation."""
        packetizer = Packetizer(payload_bytes=32)
        [packet] = packetizer.packetize(_ramp(16))
        raw = packet.to_bytes()
        injector = FaultInjector(FaultPlan(seed=11))
        for trial in range(200):
            damaged = injector.flip_burst(raw, f"trial:{trial}",
                                          max_burst_bits=16)
            assert damaged != raw
            assert not Packet.from_bytes(damaged).valid

    def test_replay_is_byte_identical(self):
        packetizer = Packetizer(payload_bytes=32)
        [packet] = packetizer.packetize(_ramp(16))
        raw = packet.to_bytes()

        def burst_log(seed: int) -> str:
            injector = FaultInjector(FaultPlan(seed=seed))
            for trial in range(20):
                injector.flip_burst(raw, f"trial:{trial}")
            return injector.to_json()

        assert burst_log(4) == burst_log(4)
        assert burst_log(4) != burst_log(5)


class TestFaultedArq:
    def test_clean_link_delivers_everything_first_try(self):
        codes = _ramp(256)
        injector = FaultInjector(FaultPlan())
        report = simulate_arq_with_faults(codes, injector,
                                          payload_bytes=32)
        n_packets = math.ceil(codes.size * 2 / 32)
        assert report.delivered == n_packets
        assert report.recovered == 0 and report.dropped == 0
        assert report.transmissions == n_packets
        assert report.payload_bits_delivered == codes.size * 2 * 8
        assert 0 < report.goodput_fraction < 1  # framing overhead

    def test_lossy_link_recovers_within_retry_budget(self):
        plan = FaultPlan(seed=3, link=LinkFaults(drop_rate=0.3))
        injector = FaultInjector(plan)
        codes = _ramp(2048)
        report = simulate_arq_with_faults(codes, injector,
                                          payload_bytes=32,
                                          max_retries=6)
        n_packets = math.ceil(codes.size * 2 / 32)
        assert report.recovered > 0
        assert report.transmissions > n_packets
        assert report.delivered + report.dropped == n_packets
        assert report.transmissions <= n_packets * 7
        assert injector.counters["recovered"] == report.recovered
        assert injector.counters["failed"] == report.dropped

    def test_zero_retries_drop_heavily_and_are_logged(self):
        plan = FaultPlan(seed=5, link=LinkFaults(drop_rate=0.5))
        injector = FaultInjector(plan)
        report = simulate_arq_with_faults(_ramp(2048), injector,
                                          payload_bytes=32,
                                          max_retries=0)
        assert report.dropped > 0
        assert report.dropped == injector.counters["failed"]

    def test_retry_budget_defaults_to_the_plan(self):
        plan = FaultPlan(seed=3, link=LinkFaults(drop_rate=0.3))
        explicit = simulate_arq_with_faults(
            _ramp(512), FaultInjector(plan), payload_bytes=32,
            max_retries=plan.retry.max_retries)
        implicit = simulate_arq_with_faults(
            _ramp(512), FaultInjector(plan), payload_bytes=32)
        assert explicit.to_dict() == implicit.to_dict()
        with pytest.raises(ValueError):
            simulate_arq_with_faults(_ramp(64), FaultInjector(plan),
                                     max_retries=-1)

    def test_energy_accounting(self):
        report = FaultedArqReport(delivered=2, recovered=1, dropped=0,
                                  transmissions=3,
                                  payload_bits_delivered=512,
                                  total_bits_sent=864)
        assert report.goodput_fraction == pytest.approx(512 / 864)
        assert report.delivered_energy_per_bit(10e-9) == pytest.approx(
            10e-9 * 864 / 512)
        dead = FaultedArqReport(delivered=0, recovered=0, dropped=4,
                                transmissions=4,
                                payload_bits_delivered=0,
                                total_bits_sent=1152)
        assert dead.goodput_fraction == 0.0
        assert math.isinf(dead.delivered_energy_per_bit(10e-9))
        with pytest.raises(ValueError):
            dead.delivered_energy_per_bit(-1.0)

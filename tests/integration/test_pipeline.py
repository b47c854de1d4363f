"""Cross-module integration tests: the full implant pipeline end to end."""

import numpy as np
import pytest

from repro.accel.schedule import best_schedule
from repro.accel.tech import TECH_45NM
from repro.compress.delta import quantize
from repro.core.comp_centric import Workload, evaluate_comp_centric
from repro.core.scaling import scale_to_standard
from repro.core.socs import soc_by_number
from repro.dnn.models import build_speech_mlp
from repro.link.budget import LinkBudget
from repro.link.channel import AwgnChannel
from repro.link.modulation import OOK
from repro.link.packetizer import Packetizer
from repro.signals.lfp import synthesize_ecog
from repro.thermal.budget import assess


class TestCommCentricStream:
    """Signals -> ADC -> packetizer -> modulated link -> wearable."""

    def test_lossless_stream_over_clean_link(self, rng):
        n_channels, fs = 16, 2000.0
        analog = synthesize_ecog(n_channels, 0.1, fs, rng) * 0.1
        codes = quantize(analog, bits=10)

        packetizer = Packetizer(payload_bytes=128, sample_bits=10)
        packets = packetizer.packetize(codes)

        # Serialize, modulate with OOK, traverse a high-SNR channel.
        raw = b"".join(p.to_bytes() for p in packets)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        scheme = OOK()
        channel = AwgnChannel(ebn0_linear=10 ** 1.6, rng=rng)
        received = scheme.demodulate(channel.transmit(scheme.modulate(bits)))
        assert np.array_equal(received, bits)  # clean at 16 dB

        # Rebuild packets and recover the exact codes.
        received_bytes = np.packbits(received).tobytes()
        size = len(packets[0].to_bytes())
        from repro.link.packetizer import Packet
        recovered_packets = [
            Packet.from_bytes(received_bytes[i:i + size])
            for i in range(0, len(received_bytes), size)
        ]
        recovered = packetizer.depacketize(recovered_packets)
        np.testing.assert_array_equal(recovered, codes.reshape(-1))

    def test_stream_power_is_within_bisc_budget(self):
        # Eq. 6 + Eq. 9 for a BISC-like configuration stays within Eq. 3.
        soc = scale_to_standard(soc_by_number(1))
        power = soc.sensing_throughput_bps() * soc.implied_energy_per_bit_j
        report = assess(soc.sensing_power_anchor_w + power, soc.area_m2)
        assert report.safe


class TestCompCentricPipeline:
    """DNN -> accelerator schedule -> feasibility."""

    def test_schedule_power_consistent_with_framework(self):
        # The Eq. 13 bound used by the Fig. 10 analysis equals the
        # schedule power computed directly from the same network.
        soc = scale_to_standard(soc_by_number(1))
        net = build_speech_mlp(1024)
        schedule = best_schedule(net.mac_profiles(),
                                 1.0 / soc.sampling_hz, TECH_45NM)
        point = evaluate_comp_centric(soc, Workload.MLP, 1024)
        assert point.comp_power_w == pytest.approx(
            schedule.power_w(TECH_45NM))

    def test_simulator_cycles_bounded_by_deadline_when_feasible(self):
        # A feasible schedule finishes within the sampling period.
        soc = scale_to_standard(soc_by_number(1))
        net = build_speech_mlp(128)
        deadline = 1.0 / soc.sampling_hz
        schedule = best_schedule(net.mac_profiles(), deadline, TECH_45NM)
        assert schedule.runtime_s <= deadline


class TestEndToEndFeasibilityStory:
    def test_raw_streaming_vs_computation_tradeoff(self):
        # The paper's core trade-off: at 1024 channels raw streaming is
        # cheap; the DNN lower bound costs more power but slashes the
        # transmitted data volume by ~3 orders of magnitude.
        soc = scale_to_standard(soc_by_number(1))
        raw_rate = soc.sensing_throughput_bps()
        point = evaluate_comp_centric(soc, Workload.MLP, 1024)
        dnn_rate = 40 * soc.sample_bits * soc.sampling_hz
        assert dnn_rate < raw_rate / 20
        # Compute grows quadratically while streaming grows linearly, so
        # the compute-to-streaming power ratio worsens with scale — the
        # reason computation-centric designs stop paying off (Fig. 10).
        raw_comm_power = raw_rate * soc.implied_energy_per_bit_j
        point_2x = evaluate_comp_centric(soc, Workload.MLP, 2048)
        ratio_1x = point.comp_power_w / raw_comm_power
        ratio_2x = point_2x.comp_power_w / (2 * raw_comm_power)
        assert ratio_2x > ratio_1x

    def test_link_budget_consistent_with_comm_power(self):
        # Eq. 9 with the LinkBudget Eb reproduces the mW-scale comm power
        # the analysis attributes to transceivers.
        soc = scale_to_standard(soc_by_number(1))
        energy = LinkBudget().transmit_energy_per_bit(
            bits_per_symbol=1, efficiency=0.15)
        power = soc.sensing_throughput_bps() * energy
        assert 1e-3 < power < 50e-3

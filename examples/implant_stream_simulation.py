"""End-to-end implant simulation: brain -> NI -> packets -> RF -> wearable.

Simulates the communication-centric dataflow of Fig. 3 at waveform level:
synthetic cortical activity is digitized by the neural interface,
packetized with CRC framing, OOK-modulated over an AWGN link at several
SNRs, and reassembled on the wearable.  Reports packet loss, effective
throughput, the Eq. 9 transmit power, and the tissue heating it implies.

Run:  python examples/implant_stream_simulation.py
"""

import numpy as np

from repro.core.scaling import scale_to_standard
from repro.core.socs import soc_by_number
from repro.experiments.report import format_table
from repro.link.budget import LinkBudget, communication_power
from repro.link.channel import AwgnChannel
from repro.link.modulation import OOK
from repro.link.packetizer import Packet, Packetizer
from repro.ni.adc import AdcModel
from repro.ni.geometry import GridArray
from repro.ni.interface import NeuralInterface
from repro.signals.lfp import synthesize_ecog
from repro.thermal.budget import assess
from repro.thermal.model import TissueThermalModel
from repro.units import to_mbps, to_mw

N_CHANNELS = 64
SAMPLING_HZ = 8e3
DURATION_S = 0.05


def transmit_block(codes: np.ndarray, ebn0_db: float,
                   rng: np.random.Generator) -> tuple[int, int]:
    """Push one digitized block through the link.

    Returns:
        (packets sent, packets recovered intact).
    """
    packetizer = Packetizer(payload_bytes=64, sample_bits=10)
    packets = packetizer.packetize(codes)
    scheme = OOK()
    channel = AwgnChannel(ebn0_linear=10 ** (ebn0_db / 10.0), rng=rng)

    intact = 0
    for packet in packets:
        raw = packet.to_bytes()
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        received = scheme.demodulate(channel.transmit(scheme.modulate(bits)))
        rebuilt = Packet.from_bytes(np.packbits(received).tobytes())
        if rebuilt.valid and rebuilt.payload == packet.payload:
            intact += 1
    return len(packets), intact


def main() -> None:
    rng = np.random.default_rng(3)

    # Implanted-side pipeline: cortical activity -> digitized frames.
    ni = NeuralInterface(
        geometry=GridArray(rows=8, cols=8, pitch_m=300e-6),
        adc=AdcModel(bits=10, sampling_rate_hz=SAMPLING_HZ))
    analog = 0.2 * synthesize_ecog(N_CHANNELS, DURATION_S, SAMPLING_HZ, rng)
    codes = ni.acquire(analog)
    print(f"acquired {codes.shape[1]} samples x {codes.shape[0]} channels "
          f"({to_mbps(ni.throughput_bps):.2f} Mbps sustained)")

    # Sweep link quality and measure packet survival.
    rows = []
    for ebn0_db in (8.0, 10.0, 12.0, 14.0):
        sent, intact = transmit_block(codes, ebn0_db, rng)
        rows.append({"ebn0_db": ebn0_db, "packets": sent,
                     "intact": intact,
                     "delivery_rate": intact / sent})
    print(format_table(rows))

    # Power and thermal consequences of sustaining the stream.
    budget = LinkBudget()
    energy = budget.transmit_energy_per_bit(1, efficiency=0.15,
                                            scheme="ook")
    comm_power = communication_power(ni.throughput_bps, energy)
    total = ni.sensing_power_w + comm_power
    print(f"\nsustained power: sensing {to_mw(ni.sensing_power_w):.2f} mW "
          f"+ OOK transmit {to_mw(comm_power):.2f} mW "
          f"= {to_mw(total):.2f} mW")
    report = assess(total, ni.geometry.total_area_m2)
    print(f"safety: {report.describe()}")
    thermal = TissueThermalModel()
    rise = thermal.steady_state_rise_k(report.density_w_m2)
    print(f"steady-state tissue heating: {rise:.2f} degC "
          f"(time constant {thermal.time_constant_s:.0f} s)")

    # Cross-check against a published design at full scale.
    bisc = scale_to_standard(soc_by_number(1))
    print(f"\nfor comparison, {bisc.name} at 1024 channels streams "
          f"{to_mbps(bisc.sensing_throughput_bps()):.1f} Mbps within "
          f"{to_mw(bisc.budget_w()):.1f} mW of budget")


if __name__ == "__main__":
    main()

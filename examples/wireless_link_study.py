"""Wireless-link study: theory vs simulation for the implant radio.

Reproduces the modulation-level groundwork under the paper's Section 5
analysis: analytical BER curves validated against Monte-Carlo symbol
simulation, the energy-per-bit cost of each QAM order through the
transcutaneous link budget, what that implies for streaming power, and
what retransmissions add to it on a marginal link.

Run:  python examples/wireless_link_study.py
"""

import numpy as np

from repro.experiments.report import ascii_plot, format_table
from repro.link import (
    BPSK,
    MQAM,
    OOK,
    QPSK,
    LinkBudget,
    Packetizer,
    communication_power,
    delivered_energy_per_bit,
    expected_transmissions,
    measure_ber_grid,
    required_ebn0,
    shannon_ebn0_limit_db,
    simulate_arq,
)
from repro.units import to_mbps, to_mw, to_pj


def ber_validation(seed: int) -> None:
    """Theory vs Monte-Carlo BER for the schemes implants use.

    The whole (scheme x Eb/N0) design grid is measured in one batched
    call; each scheme draws from its own seed-derived substream, so the
    numbers match per-scheme sweeps bit for bit.
    """
    print("BER validation (400k bits/point):")
    schemes = (OOK(), BPSK(), QPSK(), MQAM(4))
    ebn0_grid = (4.0, 7.0, 10.0)
    measured = measure_ber_grid(schemes, np.asarray(ebn0_grid),
                                400_000, seed=seed)
    rows = []
    for i, scheme in enumerate(schemes):
        for j, ebn0_db in enumerate(ebn0_grid):
            theory = scheme.theoretical_ber(10 ** (ebn0_db / 10))
            rows.append({"scheme": scheme.name, "ebn0_db": ebn0_db,
                         "theory": theory,
                         "measured": float(measured[i, j])})
    print(format_table(rows, float_format="{:.2e}"))


def qam_energy_ladder() -> None:
    """Energy per bit for each QAM order through the tissue link."""
    budget = LinkBudget()
    print("\nQAM energy ladder (BER 1e-6, 60 dB path loss, 20 dB margin):")
    rows = []
    series = {}
    for bits in range(1, 9):
        ideal = budget.transmit_energy_per_bit(bits, efficiency=1.0)
        real = budget.transmit_energy_per_bit(bits, efficiency=0.15)
        ebn0_db = 10 * np.log10(required_ebn0(1e-6, bits))
        rows.append({
            "bits_per_symbol": bits,
            "required_ebn0_db": ebn0_db,
            "shannon_floor_db": shannon_ebn0_limit_db(float(bits)),
            "ideal_pj_per_bit": to_pj(ideal),
            "at_15pct_pj_per_bit": to_pj(real),
        })
        series.setdefault("ideal Eb [pJ/b]", []).append(
            (bits, to_pj(ideal)))
    print(format_table(rows))
    print()
    print(ascii_plot(series, x_label="bits/symbol", y_label="Eb [pJ/bit]",
                     height=10))


def streaming_power() -> None:
    """Eq. 9 streaming power for the 1024-channel standard."""
    budget = LinkBudget()
    throughput = 1024 * 10 * 8e3  # n * d * f, the paper's example
    print(f"\nstreaming {to_mbps(throughput):.1f} Mbps "
          "(1024 ch x 10 b x 8 kHz):")
    for bits, eff in ((1, 0.15), (2, 0.15), (4, 0.15), (4, 1.0)):
        energy = budget.transmit_energy_per_bit(bits, efficiency=eff)
        power = communication_power(throughput, energy)
        print(f"  {2 ** bits:>3d}-point modulation at {eff:>4.0%} "
              f"efficiency: {to_mw(power):6.2f} mW")


def arq_cost(seed: int) -> None:
    """Retransmissions on a marginal BPSK link: ARQ theory vs a
    CRC-checked Monte-Carlo session, and the energy per delivered bit."""
    payload_bytes, retries = 32, 10
    payload_bits = 8 * payload_bytes
    overhead_bits = 8 * (Packetizer.HEADER_BYTES + Packetizer.CRC_BYTES)
    energy = LinkBudget().transmit_energy_per_bit(1, efficiency=0.15)
    rng = np.random.default_rng(seed)
    codes = rng.integers(-512, 512, 2048).astype(np.int32)
    print(f"\nARQ over BPSK ({payload_bytes}-byte payloads, CRC-16, "
          f"up to {retries} retries):")
    rows = []
    for ebn0_db in (6.0, 7.0, 9.0):
        ber = BPSK().theoretical_ber(10 ** (ebn0_db / 10))
        session = simulate_arq(codes, BPSK(), ebn0_db, rng,
                               payload_bytes=payload_bytes,
                               max_retries=retries)
        rows.append({
            "ebn0_db": ebn0_db,
            "ber": f"{ber:.1e}",
            "theory_tx_per_packet": expected_transmissions(
                ber, payload_bits + overhead_bits, max_retries=retries),
            "simulated_tx_per_packet": session.mean_transmissions,
            "pj_per_delivered_bit": to_pj(delivered_energy_per_bit(
                energy, ber, payload_bits, overhead_bits)),
        })
    print(format_table(rows))


def main() -> None:
    ber_validation(seed=42)
    qam_energy_ladder()
    streaming_power()
    arq_cost(seed=42)


if __name__ == "__main__":
    main()

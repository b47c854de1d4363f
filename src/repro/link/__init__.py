"""Wireless RF communication substrate.

Implements the paper's communication models (Sections 5.1-5.2): analytical
bit-error-rate theory for OOK / PSK / M-QAM, the "QAM equation" solver that
derives the required Eb/N0 for a target BER, the transcutaneous link budget
(path loss + tissue margin + receiver noise), energy-per-bit and Eq. 9
communication power, a Monte-Carlo AWGN channel to validate the closed
forms, and a CRC-framed packetizer for the streaming substrate.
"""

from repro.link.ber import (
    q_function,
    ber_bpsk,
    ber_ook,
    ber_mqam,
    required_ebn0,
    shannon_ebn0_limit_db,
)
from repro.link.modulation import (
    Modulation,
    OOK,
    BPSK,
    QPSK,
    MQAM,
)
from repro.link.budget import (
    LinkBudget,
    transmit_energy_per_bit,
    communication_power,
)
from repro.link.channel import (AwgnChannel, measure_ber,
                                measure_ber_grid, measure_ber_sweep)
from repro.link.packetizer import Packet, Packetizer, crc16
from repro.link.wpt import InductiveLink
from repro.link.protocol import (
    ArqSimulationResult,
    delivered_energy_per_bit,
    effective_goodput,
    expected_transmissions,
    packet_success_probability,
    simulate_arq,
)

__all__ = [
    "q_function",
    "ber_bpsk",
    "ber_ook",
    "ber_mqam",
    "required_ebn0",
    "shannon_ebn0_limit_db",
    "Modulation",
    "OOK",
    "BPSK",
    "QPSK",
    "MQAM",
    "LinkBudget",
    "transmit_energy_per_bit",
    "communication_power",
    "AwgnChannel",
    "measure_ber",
    "measure_ber_grid",
    "measure_ber_sweep",
    "Packet",
    "Packetizer",
    "crc16",
    "InductiveLink",
    "ArqSimulationResult",
    "delivered_energy_per_bit",
    "effective_goodput",
    "expected_transmissions",
    "packet_success_probability",
    "simulate_arq",
]

"""Link-layer reliability: ARQ retransmission over the noisy RF channel.

Connects the BER theory to the packetizer: a packet of L bits survives an
independent-bit channel with probability (1 - BER)^L, and a stop-and-wait
/ selective-repeat ARQ retransmits failures.  The expected transmission
count per packet is geometric, which inflates both the effective data rate
the transceiver must sustain and the Eq. 9 energy per *delivered* bit —
the hidden cost of running the link at a marginal Eb/N0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.link.channel import AwgnChannel
from repro.link.modulation import Modulation
from repro.link.packetizer import Packet, PacketError, Packetizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fault.injector import FaultInjector


def packet_success_probability(ber: float, packet_bits: int) -> float:
    """Probability a packet of ``packet_bits`` arrives intact."""
    if not 0.0 <= ber < 1.0:
        raise ValueError("BER must lie in [0, 1)")
    if packet_bits <= 0:
        raise ValueError("packet size must be positive")
    return (1.0 - ber) ** packet_bits


def expected_transmissions(ber: float, packet_bits: int,
                           max_retries: int | None = None) -> float:
    """Mean transmissions per packet under ARQ.

    With unlimited retries the count is geometric: 1/p.  A retry cap
    truncates the distribution (packets may be dropped).
    """
    p = packet_success_probability(ber, packet_bits)
    if p == 0.0:
        return math.inf
    if max_retries is None:
        return 1.0 / p
    q = 1.0 - p
    attempts = max_retries + 1
    # E[min(G, attempts)] for geometric G.
    return (1.0 - q ** attempts) / p


def effective_goodput(raw_rate_bps: float, ber: float,
                      payload_bits: int, overhead_bits: int) -> float:
    """Delivered payload rate after framing overhead and retransmission.

    Args:
        raw_rate_bps: physical-layer bit rate.
        ber: channel bit error rate.
        payload_bits: payload per packet.
        overhead_bits: header + CRC per packet.
    """
    if raw_rate_bps <= 0:
        raise ValueError("raw rate must be positive")
    total = payload_bits + overhead_bits
    retx = expected_transmissions(ber, total)
    if math.isinf(retx):
        return 0.0
    return raw_rate_bps * (payload_bits / total) / retx


@dataclass
class ArqSimulationResult:
    """Outcome of a Monte-Carlo ARQ session.

    Attributes:
        packets: logical packets delivered.
        transmissions: physical transmissions used.
        dropped: packets abandoned after the retry cap.
    """

    packets: int
    transmissions: int
    dropped: int

    @property
    def mean_transmissions(self) -> float:
        """Average physical sends per delivered-or-dropped packet."""
        if self.packets + self.dropped == 0:
            return 0.0
        return self.transmissions / (self.packets + self.dropped)


def simulate_arq(codes: np.ndarray,
                 scheme: Modulation,
                 ebn0_db: float,
                 rng: np.random.Generator,
                 payload_bytes: int = 32,
                 sample_bits: int = 10,
                 max_retries: int = 10) -> ArqSimulationResult:
    """Run a CRC-checked ARQ session over a simulated AWGN link.

    Each packet is modulated, pushed through the channel, demodulated,
    and CRC-verified; failures retransmit up to ``max_retries`` times.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    packetizer = Packetizer(payload_bytes=payload_bytes,
                            sample_bits=sample_bits)
    packets = packetizer.packetize(codes)
    channel = AwgnChannel(ebn0_linear=10 ** (ebn0_db / 10.0), rng=rng)

    delivered = 0
    transmissions = 0
    dropped = 0
    for packet in packets:
        raw = packet.to_bytes()
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        # Pad to a whole number of symbols.
        pad = -bits.size % scheme.bits_per_symbol
        padded = np.concatenate([bits, np.zeros(pad, dtype=np.int8)])
        success = False
        for _ in range(max_retries + 1):
            transmissions += 1
            received = scheme.demodulate(
                channel.transmit(scheme.modulate(padded)))
            rebuilt = Packet.from_bytes(
                np.packbits(received[:bits.size]).tobytes())
            if rebuilt.valid and rebuilt.payload == packet.payload:
                success = True
                break
        if success:
            delivered += 1
        else:
            dropped += 1
    return ArqSimulationResult(packets=delivered,
                               transmissions=transmissions,
                               dropped=dropped)


@dataclass
class FaultedArqReport:
    """Outcome of an injector-driven ARQ session.

    Attributes:
        delivered: packets that got through (first try or retry).
        recovered: delivered packets that needed at least one retry.
        dropped: packets abandoned after the retry budget.
        transmissions: physical sends, retries included.
        payload_bits_delivered: payload bits of delivered packets.
        total_bits_sent: every bit pushed onto the air, framing and
            retransmissions included.
    """

    delivered: int
    recovered: int
    dropped: int
    transmissions: int
    payload_bits_delivered: int
    total_bits_sent: int

    @property
    def goodput_fraction(self) -> float:
        """Delivered payload bits per transmitted bit (0 when idle)."""
        if self.total_bits_sent == 0:
            return 0.0
        return self.payload_bits_delivered / self.total_bits_sent

    def delivered_energy_per_bit(self, energy_per_bit_j: float) -> float:
        """Transmit energy per delivered payload bit.

        Every transmitted bit (framing + retransmissions) costs
        ``energy_per_bit_j``, and only the delivered payload counts.
        Infinite when nothing got through.
        """
        if energy_per_bit_j < 0:
            raise ValueError("energy must be non-negative")
        if self.payload_bits_delivered == 0:
            return math.inf
        return (energy_per_bit_j * self.total_bits_sent
                / self.payload_bits_delivered)

    def to_dict(self) -> dict[str, float]:
        """JSON-able counters plus the derived goodput fraction."""
        return {
            "delivered": self.delivered,
            "recovered": self.recovered,
            "dropped": self.dropped,
            "transmissions": self.transmissions,
            "payload_bits_delivered": self.payload_bits_delivered,
            "total_bits_sent": self.total_bits_sent,
            "goodput_fraction": self.goodput_fraction,
        }


def simulate_arq_with_faults(codes: np.ndarray,
                             injector: "FaultInjector",
                             payload_bytes: int = 32,
                             sample_bits: int = 10,
                             max_retries: int | None = None,
                             ) -> FaultedArqReport:
    """Run a stop-and-wait ARQ session against an injected fault plan.

    Unlike :func:`simulate_arq` (Monte-Carlo AWGN channel), every
    impairment here comes from the injector's seeded plan — drops,
    truncations, and bit flips — so the session replays exactly and
    its recovery counters land in the injector's fault log.

    Args:
        codes: ADC codes to deliver.
        injector: seeded :class:`repro.fault.injector.FaultInjector`.
        payload_bytes: payload per packet.
        sample_bits: ADC bitwidth of the codes.
        max_retries: retry budget per packet; defaults to the plan's
            ``retry.max_retries``.

    Returns:
        A :class:`FaultedArqReport` with goodput and energy accounting.
    """
    if max_retries is None:
        max_retries = injector.plan.retry.max_retries
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    packetizer = Packetizer(payload_bytes=payload_bytes,
                            sample_bits=sample_bits)
    packets = packetizer.packetize(codes)

    delivered = 0
    recovered = 0
    dropped = 0
    transmissions = 0
    payload_bits_delivered = 0
    total_bits_sent = 0
    for index, packet in enumerate(packets):
        raw = packet.to_bytes()
        packet_bits = 8 * len(raw)
        success = False
        attempts_used = 0
        for attempt in range(max_retries + 1):
            attempts_used = attempt + 1
            transmissions += 1
            total_bits_sent += packet_bits
            damaged = injector.perturb_packet(
                raw, target=f"packet:{index}:try{attempt}")
            if damaged is None:
                continue
            try:
                rebuilt = Packet.from_bytes(damaged)
            except PacketError:
                continue
            if rebuilt.valid and rebuilt.payload == packet.payload:
                success = True
                break
        if success:
            delivered += 1
            payload_bits_delivered += 8 * len(packet.payload)
            if attempts_used > 1:
                recovered += 1
                injector.record_recovered(
                    "link", target=f"packet:{index}",
                    attempts=attempts_used)
        else:
            dropped += 1
            injector.record_failed("link", target=f"packet:{index}",
                                   attempts=attempts_used)
    return FaultedArqReport(delivered=delivered, recovered=recovered,
                            dropped=dropped, transmissions=transmissions,
                            payload_bits_delivered=payload_bits_delivered,
                            total_bits_sent=total_bits_sent)

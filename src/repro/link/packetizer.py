"""Packetization of digitized neural frames for wireless transmission.

In the communication-centric dataflow (paper Fig. 3, Section 3.1) the only
on-implant computation is "digitize and packetize".  This module is that
stage: frames of ADC codes are split into fixed-payload packets carrying a
sequence number and CRC-16 so the wearable can detect loss and corruption.
Its header and CRC sizes set the framing overhead of the ARQ goodput
accounting (:mod:`repro.link.protocol`) and the dashboard's link envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: CRC-16/CCITT-FALSE polynomial.
_CRC16_POLY = 0x1021
_CRC16_INIT = 0xFFFF


class PacketError(ValueError):
    """Malformed serialized packet (too short to hold header + CRC).

    Subclasses :class:`ValueError` so pre-existing callers that caught
    the old untyped error keep working.
    """


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE over a byte string."""
    crc = _CRC16_INIT
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ _CRC16_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


@dataclass(frozen=True)
class Packet:
    """One framed unit of neural payload.

    Attributes:
        sequence: monotonically increasing packet counter (wraps at 2^16).
        payload: raw payload bytes.
        checksum: CRC-16 over sequence (big-endian) plus payload.
    """

    sequence: int
    payload: bytes
    checksum: int

    @property
    def valid(self) -> bool:
        """True when the checksum matches the contents."""
        header = self.sequence.to_bytes(2, "big")
        return crc16(header + self.payload) == self.checksum

    def to_bytes(self) -> bytes:
        """Serialize as header | payload | CRC."""
        return (self.sequence.to_bytes(2, "big") + self.payload
                + self.checksum.to_bytes(2, "big"))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Packet":
        """Parse a serialized packet (no payload-length framing here; the
        caller supplies exactly one packet's bytes).

        Raises:
            PacketError: when ``raw`` cannot hold a header plus CRC
                (truncated on the wire, for instance).
        """
        if len(raw) < Packetizer.HEADER_BYTES + Packetizer.CRC_BYTES:
            raise PacketError(
                f"packet too short: {len(raw)} bytes, need at least "
                f"{Packetizer.HEADER_BYTES + Packetizer.CRC_BYTES}")
        sequence = int.from_bytes(raw[:2], "big")
        checksum = int.from_bytes(raw[-2:], "big")
        return cls(sequence=sequence, payload=raw[2:-2], checksum=checksum)


@dataclass
class StreamLossReport:
    """What a lossy reassembly had to discard or repair.

    Attributes:
        received: raw packets offered to the receiver.
        accepted: packets that parsed and passed CRC.
        crc_failures: packets rejected by checksum.
        malformed: packets too short to parse at all.
        duplicates: CRC-valid packets discarded as repeated sequences.
        reordered: accepted packets that arrived out of order.
        missing: sequence slots absent between the first and last
            accepted packet (dropped on the wire).
        trailing_bytes_dropped: payload tail discarded because it did
            not contain a whole number of samples.
    """

    received: int = 0
    accepted: int = 0
    crc_failures: int = 0
    malformed: int = 0
    duplicates: int = 0
    reordered: int = 0
    missing: int = 0
    trailing_bytes_dropped: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-able counters (for manifests and fault logs)."""
        return {key: int(value)
                for key, value in sorted(vars(self).items())}


@dataclass
class _AcceptedPacket:
    offset: int
    payload: bytes = field(repr=False)


class Packetizer:
    """Splits digitized frames into CRC-framed packets.

    Args:
        payload_bytes: payload size per packet; the header+CRC add 4 bytes.
        sample_bits: ADC bitwidth of the codes being packed (samples are
            packed as signed two's-complement into ceil(bits/8) bytes each —
            a simple byte-aligned packing; sub-byte packing would only shift
            the constant overhead factor).
    """

    HEADER_BYTES = 2
    CRC_BYTES = 2

    def __init__(self, payload_bytes: int = 256,
                 sample_bits: int = 10) -> None:
        if payload_bytes <= 0:
            raise ValueError("payload size must be positive")
        if sample_bits < 1 or sample_bits > 32:
            raise ValueError("sample_bits must be in [1, 32]")
        self.payload_bytes = payload_bytes
        self.sample_bits = sample_bits
        self.bytes_per_sample = (sample_bits + 7) // 8
        self._sequence = 0

    @property
    def overhead_ratio(self) -> float:
        """Framing bytes per payload byte."""
        return (self.HEADER_BYTES + self.CRC_BYTES) / self.payload_bytes

    def packetize(self, codes: np.ndarray) -> list[Packet]:
        """Pack a block of ADC codes into packets.

        Args:
            codes: integer array of any shape; flattened in C order.

        Returns:
            Packets covering all samples; the final packet may be short.
        """
        flat = np.asarray(codes).reshape(-1)
        raw = _codes_to_bytes(flat, self.bytes_per_sample)
        packets = []
        for start in range(0, len(raw), self.payload_bytes):
            payload = raw[start:start + self.payload_bytes]
            header = self._sequence.to_bytes(2, "big")
            packets.append(Packet(sequence=self._sequence, payload=payload,
                                  checksum=crc16(header + payload)))
            self._sequence = (self._sequence + 1) & 0xFFFF
        return packets

    def depacketize(self, packets: list[Packet]) -> np.ndarray:
        """Reassemble ADC codes from valid packets.

        Raises:
            ValueError: if any packet fails its CRC or sequence numbers are
                not contiguous (mod 2^16).
        """
        if not packets:
            return np.array([], dtype=np.int32)
        expected = packets[0].sequence
        chunks = []
        for packet in packets:
            if not packet.valid:
                raise ValueError(f"packet {packet.sequence} failed CRC")
            if packet.sequence != expected:
                raise ValueError(
                    f"sequence gap: expected {expected}, got "
                    f"{packet.sequence}")
            expected = (expected + 1) & 0xFFFF
            chunks.append(packet.payload)
        return _bytes_to_codes(b"".join(chunks), self.bytes_per_sample,
                               self.sample_bits)

    def depacketize_lossy(
            self, raw_packets: list[bytes],
    ) -> tuple[np.ndarray, StreamLossReport]:
        """Best-effort reassembly of a damaged packet stream.

        The fault-tolerant counterpart of :meth:`depacketize`: never
        raises.  Malformed and CRC-failing packets are discarded,
        survivors are re-sorted by sequence offset from the first
        accepted packet (mod 2^16, so wraparound streams reorder
        correctly), duplicates are dropped, and a trailing partial
        sample is truncated.

        Args:
            raw_packets: serialized packets as received (possibly
                dropped, reordered, truncated, or bit-flipped).

        Returns:
            ``(codes, report)``: the samples recovered in order, and
            the loss accounting.
        """
        report = StreamLossReport(received=len(raw_packets))
        accepted: list[_AcceptedPacket] = []
        first_seq: int | None = None
        for raw in raw_packets:
            try:
                packet = Packet.from_bytes(raw)
            except PacketError:
                report.malformed += 1
                continue
            if not packet.valid:
                report.crc_failures += 1
                continue
            if first_seq is None:
                first_seq = packet.sequence
            offset = (packet.sequence - first_seq) & 0xFFFF
            accepted.append(_AcceptedPacket(offset=offset,
                                            payload=packet.payload))
        report.reordered = sum(
            1 for earlier, later in zip(accepted, accepted[1:])
            if later.offset < earlier.offset)
        accepted.sort(key=lambda item: item.offset)
        unique: list[_AcceptedPacket] = []
        for item in accepted:
            if unique and item.offset == unique[-1].offset:
                report.duplicates += 1
                continue
            unique.append(item)
        report.accepted = len(unique)
        if unique:
            span_slots = unique[-1].offset - unique[0].offset + 1
            report.missing = span_slots - len(unique)
        raw = b"".join(item.payload for item in unique)
        remainder = len(raw) % self.bytes_per_sample
        if remainder:
            report.trailing_bytes_dropped = remainder
            raw = raw[:len(raw) - remainder]
        codes = _bytes_to_codes(raw, self.bytes_per_sample,
                                self.sample_bits)
        return codes, report


def _codes_to_bytes(codes: np.ndarray, bytes_per_sample: int) -> bytes:
    width = 8 * bytes_per_sample
    unsigned = (codes.astype(np.int64) & ((1 << width) - 1))
    out = bytearray()
    for value in unsigned:
        out += int(value).to_bytes(bytes_per_sample, "big")
    return bytes(out)


def _bytes_to_codes(raw: bytes, bytes_per_sample: int,
                    sample_bits: int) -> np.ndarray:
    if len(raw) % bytes_per_sample != 0:
        raise ValueError("byte stream length is not a whole number of samples")
    n = len(raw) // bytes_per_sample
    width = 8 * bytes_per_sample
    codes = np.empty(n, dtype=np.int64)
    for i in range(n):
        chunk = raw[i * bytes_per_sample:(i + 1) * bytes_per_sample]
        value = int.from_bytes(chunk, "big")
        # Sign-extend from the storage width.
        if value >= 1 << (width - 1):
            value -= 1 << width
        codes[i] = value
    del sample_bits
    return codes.astype(np.int32)

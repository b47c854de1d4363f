"""Delta + Rice compression pipeline with power accounting.

Chains the predictive and entropy stages per channel and reports the
compression ratio, which scales the Eq. 9 communication power:

    P_comm_compressed = T_sensing / ratio * Eb + P_codec

The per-sample codec cost is charged as a configurable number of
ALU-op-equivalents at MAC energy — the "additional computational steps"
Section 6.2 holds against standard compression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.tech import TECH_45NM, TechnologyNode
from repro.compress.delta import delta_decode, delta_encode
from repro.compress.rice import (
    PackedBits,
    optimal_rice_parameter,
    optimal_rice_parameters,
    pack_bitstring,
    rice_decode_packed,
    rice_encode_packed,
)


def compression_ratio(raw_bits: int, compressed_bits: int) -> float:
    """Raw over compressed size (> 1 means the codec helped)."""
    if raw_bits <= 0 or compressed_bits <= 0:
        raise ValueError("bit counts must be positive")
    return raw_bits / compressed_bits


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one multi-channel block.

    Attributes:
        raw_bits: size of the uncompressed block (d bits per sample).
        compressed_bits: total encoded size including per-channel k
            parameters.
        rice_parameters: chosen k per channel.
        ratio: raw / compressed.
    """

    raw_bits: int
    compressed_bits: int
    rice_parameters: tuple[int, ...]
    ratio: float


class NeuralCompressor:
    """Per-channel delta + Rice codec for digitized neural blocks.

    Args:
        sample_bits: ADC bitwidth d of the raw samples.
        ops_per_sample: ALU operations charged per encoded sample when
            estimating codec power (shift/compare/accumulate steps).
    """

    #: Bits spent transmitting each channel's Rice parameter.
    K_HEADER_BITS = 5

    def __init__(self, sample_bits: int = 10,
                 ops_per_sample: float = 4.0) -> None:
        if sample_bits < 1:
            raise ValueError("sample_bits must be >= 1")
        if ops_per_sample < 0:
            raise ValueError("ops_per_sample must be non-negative")
        self.sample_bits = sample_bits
        self.ops_per_sample = ops_per_sample

    def analyze(self, codes: np.ndarray) -> CompressionResult:
        """Measure compressed size of a (channels, samples) block.

        All channels are analyzed in one vectorized pass: the optimal
        Rice parameter and exact encoded size are computed for every
        channel x candidate-k pair at once (see
        :func:`repro.compress.rice.optimal_rice_parameters`).
        """
        codes = np.atleast_2d(np.asarray(codes))
        raw_bits = codes.size * self.sample_bits
        deltas = delta_encode(codes)
        ks, bits = optimal_rice_parameters(deltas)
        parameters = ks.tolist()
        total = int(bits.sum()) + self.K_HEADER_BITS * len(codes)
        return CompressionResult(
            raw_bits=raw_bits, compressed_bits=total,
            rice_parameters=tuple(parameters),
            ratio=compression_ratio(raw_bits, total))

    def encode_channel(self, channel: np.ndarray,
                       ) -> tuple[PackedBits, int]:
        """Encode one channel; returns (packed bit stream, rice
        parameter)."""
        deltas = delta_encode(channel)
        k = optimal_rice_parameter(deltas)
        return rice_encode_packed(deltas, k), k

    def decode_channel(self, bits: PackedBits | str, k: int,
                       n_samples: int) -> np.ndarray:
        """Lossless inverse of :meth:`encode_channel`.

        Accepts either a :class:`~repro.compress.rice.PackedBits` stream
        (the production format) or a legacy '0'/'1' string.
        """
        if isinstance(bits, str):
            bits = pack_bitstring(bits)
        deltas = rice_decode_packed(bits, k, n_samples)
        return delta_decode(deltas)

    def codec_power_w(self, sample_rate_hz: float, n_channels: int,
                      tech: TechnologyNode = TECH_45NM) -> float:
        """Power of running the codec at the NI sampling rate [W].

        Each sample costs ``ops_per_sample`` ALU operations charged at the
        technology's per-MAC energy — a deliberate overestimate (an adder
        is cheaper than a MAC) that keeps the Section 6.2 comparison
        honest.
        """
        if sample_rate_hz <= 0 or n_channels <= 0:
            raise ValueError("rate and channel count must be positive")
        ops_per_second = self.ops_per_sample * sample_rate_hz * n_channels
        return ops_per_second * tech.energy_per_mac_j

"""Modulation schemes: bit <-> symbol mapping and per-scheme BER theory.

Each scheme knows its bits/symbol, can modulate a bit array into complex
baseband symbols normalized to unit average energy per *bit*, demodulate
noisy symbols back to bits, and report its theoretical BER at a given Eb/N0.
The Monte-Carlo channel in :mod:`repro.link.channel` uses these to validate
the closed forms used by the MINDFUL power analysis.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.link.ber import ber_bpsk, ber_mqam, ber_ook


class Modulation(ABC):
    """A digital modulation scheme over complex AWGN baseband."""

    #: Number of bits carried per transmitted symbol.
    bits_per_symbol: int = 1

    @property
    def name(self) -> str:
        """Human-readable scheme name."""
        return type(self).__name__

    @abstractmethod
    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map a 0/1 bit array to complex symbols with unit energy per bit."""

    @abstractmethod
    def demodulate(self, symbols: np.ndarray) -> np.ndarray:
        """Hard-decision demodulation back to a 0/1 bit array."""

    @abstractmethod
    def theoretical_ber(self, ebn0_linear: float) -> float:
        """Closed-form (or standard approximate) BER at a linear Eb/N0."""

    def _require_multiple(self, n_bits: int) -> None:
        if n_bits % self.bits_per_symbol != 0:
            raise ValueError(
                f"{self.name} needs bit counts divisible by "
                f"{self.bits_per_symbol}, got {n_bits}")


class OOK(Modulation):
    """On-off keying: the energy-efficient scheme of implanted SoCs (5.1)."""

    bits_per_symbol = 1

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        bits = _as_bits(bits)
        # Unit average energy per bit with half the symbols dark:
        # E[|s|^2] = 0.5 * A^2 = 1  =>  A = sqrt(2).
        return bits.astype(complex) * math.sqrt(2.0)

    def demodulate(self, symbols: np.ndarray) -> np.ndarray:
        threshold = math.sqrt(2.0) / 2.0
        return (np.real(symbols) > threshold).astype(np.int8)

    def theoretical_ber(self, ebn0_linear: float) -> float:
        return ber_ook(ebn0_linear)


class BPSK(Modulation):
    """Antipodal binary phase-shift keying."""

    bits_per_symbol = 1

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        bits = _as_bits(bits)
        return (2.0 * bits - 1.0).astype(complex)

    def demodulate(self, symbols: np.ndarray) -> np.ndarray:
        return (np.real(symbols) > 0).astype(np.int8)

    def theoretical_ber(self, ebn0_linear: float) -> float:
        return ber_bpsk(ebn0_linear)


class MQAM(Modulation):
    """Gray-mapped square M-QAM (even bits/symbol).

    For odd bits/symbol the paper's analysis still uses the square-QAM BER
    approximation (see :func:`repro.link.ber.ber_mqam`); the symbol-level
    simulator, however, only supports even orders, where the rectangular
    Gray construction is exact.
    """

    def __init__(self, bits_per_symbol: int) -> None:
        if bits_per_symbol < 2 or bits_per_symbol % 2 != 0:
            raise ValueError("symbol-level MQAM requires even "
                             "bits_per_symbol >= 2")
        self.bits_per_symbol = bits_per_symbol
        self._side = 2 ** (bits_per_symbol // 2)
        m = 2 ** bits_per_symbol
        # Average symbol energy of a unit-spacing square constellation is
        # 2(M-1)/3 per complex dimension pair; normalize to Eb = 1.
        self._scale = math.sqrt(3.0 / (2.0 * (m - 1)) * bits_per_symbol)

    @property
    def name(self) -> str:
        return f"{2 ** self.bits_per_symbol}-QAM"

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        bits = _as_bits(bits)
        self._require_multiple(bits.size)
        half = self.bits_per_symbol // 2
        grouped = bits.reshape(-1, self.bits_per_symbol)
        i_levels = _gray_bits_to_level(grouped[:, :half])
        q_levels = _gray_bits_to_level(grouped[:, half:])
        side = self._side
        i_amp = 2.0 * i_levels - (side - 1)
        q_amp = 2.0 * q_levels - (side - 1)
        return self._scale * (i_amp + 1j * q_amp)

    def demodulate(self, symbols: np.ndarray) -> np.ndarray:
        # Accept any shape (the batched sweep demodulates a whole
        # points x symbols block at once); bits come back flattened in
        # row-major symbol order, exactly as per-row demodulation would
        # concatenate them.
        symbols = np.asarray(symbols).ravel()
        side = self._side
        half = self.bits_per_symbol // 2
        i_levels = _slice_level(np.real(symbols) / self._scale, side)
        q_levels = _slice_level(np.imag(symbols) / self._scale, side)
        i_bits = _level_to_gray_bits(i_levels, half)
        q_bits = _level_to_gray_bits(q_levels, half)
        return np.concatenate([i_bits, q_bits], axis=1).reshape(-1)

    def theoretical_ber(self, ebn0_linear: float) -> float:
        return ber_mqam(ebn0_linear, self.bits_per_symbol)


class QPSK(MQAM):
    """Quadrature PSK, i.e. 4-QAM."""

    def __init__(self) -> None:
        super().__init__(bits_per_symbol=2)

    @property
    def name(self) -> str:
        return "QPSK"


def _as_bits(bits: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ValueError("bit arrays must contain only 0 and 1")
    return bits.astype(np.int8)


def _gray_bits_to_level(bits: np.ndarray) -> np.ndarray:
    """Rows of Gray-coded bits -> integer levels 0..2^k-1."""
    binary = np.zeros(bits.shape[0], dtype=np.int64)
    acc = np.zeros(bits.shape[0], dtype=np.int64)
    for col in range(bits.shape[1]):
        acc = acc ^ bits[:, col].astype(np.int64)
        binary = (binary << 1) | acc
    return binary


def _level_to_gray_bits(levels: np.ndarray, width: int) -> np.ndarray:
    """Integer levels -> Gray-coded bit rows of the given width."""
    gray = levels ^ (levels >> 1)
    out = np.zeros((levels.size, width), dtype=np.int8)
    for col in range(width):
        out[:, col] = (gray >> (width - 1 - col)) & 1
    return out


def _slice_level(amplitudes: np.ndarray, side: int) -> np.ndarray:
    """Nearest constellation level index for normalized amplitudes."""
    levels = np.round((amplitudes + (side - 1)) / 2.0).astype(np.int64)
    return np.clip(levels, 0, side - 1)

"""ADC digitization model: mid-rise quantization.

The digitized sample bitwidth ``d`` enters MINDFUL's throughput equation
(Eq. 6: T_sensing = d * n / t_s) and therefore every communication-power
result downstream.  This module provides the actual quantizer the simulation
substrate uses, plus the ideal SQNR that justifies the 8-16 bit range used
in published designs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.units import khz


def quantize(signal: np.ndarray, bits: int,
             full_scale: float = 1.0) -> np.ndarray:
    """Quantize to signed integer codes with a mid-rise uniform quantizer.

    Values outside +/- full_scale clip to the extreme codes.

    Args:
        signal: analog samples.
        bits: resolution; codes span [-2^(bits-1), 2^(bits-1) - 1].
        full_scale: analog amplitude mapped to the positive full-scale code.

    Returns:
        Integer codes with dtype int32.
    """
    if bits < 1:
        raise ValueError("bit depth must be >= 1")
    if full_scale <= 0:
        raise ValueError("full scale must be positive")
    levels = 2 ** bits
    lsb = 2.0 * full_scale / levels
    codes = np.floor(np.asarray(signal, dtype=float) / lsb)
    return np.clip(codes, -levels // 2, levels // 2 - 1).astype(np.int32)


@dataclass(frozen=True)
class AdcModel:
    """A per-channel ADC description.

    Attributes:
        bits: sample bitwidth ``d`` of Eq. 6.
        sampling_rate_hz: conversion rate ``f`` (1/t_s).
        full_scale: analog full-scale amplitude.
    """

    bits: int = 10
    sampling_rate_hz: float = khz(8.0)
    full_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("bit depth must be >= 1")
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling rate must be positive")
        if self.full_scale <= 0:
            raise ValueError("full scale must be positive")

    @property
    def bits_per_second_per_channel(self) -> float:
        """Digital output rate of a single channel [bit/s]."""
        return self.bits * self.sampling_rate_hz

    def convert(self, signal: np.ndarray) -> np.ndarray:
        """Quantize an already-sampled waveform."""
        return quantize(signal, self.bits, self.full_scale)

    def ideal_sqnr_db(self) -> float:
        """Textbook 6.02*d + 1.76 dB SQNR for a full-scale sinusoid."""
        return 6.02 * self.bits + 1.76

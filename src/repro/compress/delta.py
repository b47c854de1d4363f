"""ADC quantization and delta (first-difference) predictive coding.

:func:`quantize` turns analog samples into the signed integer codes an
implant's ADC emits (the bitwidth ``d`` of Eq. 6).  Neural waveforms are
strongly oversampled relative to their bandwidth, so consecutive codes
are highly correlated; transmitting first differences concentrates the
distribution near zero, which the Rice coder then exploits.  Per-channel
state is a single previous sample — the kind of negligible memory
footprint an implant can afford.
"""

from __future__ import annotations

import numpy as np


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


def delta_encode(codes: np.ndarray) -> np.ndarray:
    """First differences along the time axis.

    Args:
        codes: (n_samples,) or (n_channels, n_samples) integer codes.

    Returns:
        Same-shape array; element 0 (per channel) is kept verbatim so the
        stream is self-contained.
    """
    codes = np.asarray(codes)
    if codes.ndim == 1:
        out = np.empty_like(codes, dtype=np.int64)
        out[0] = codes[0]
        out[1:] = np.diff(codes.astype(np.int64))
        return out
    if codes.ndim == 2:
        out = np.empty_like(codes, dtype=np.int64)
        out[:, 0] = codes[:, 0]
        out[:, 1:] = np.diff(codes.astype(np.int64), axis=1)
        return out
    raise ValueError("delta coding expects 1-D or 2-D integer arrays")


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    """Invert :func:`delta_encode` by cumulative summation."""
    deltas = np.asarray(deltas, dtype=np.int64)
    if deltas.ndim == 1:
        return np.cumsum(deltas)
    if deltas.ndim == 2:
        return np.cumsum(deltas, axis=1)
    raise ValueError("delta coding expects 1-D or 2-D integer arrays")

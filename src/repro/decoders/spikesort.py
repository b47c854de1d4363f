"""Spike detection and channel-activity ranking.

This is the substrate behind the paper's *channel dropout* optimization
(Section 6.2): "computational methods such as spike sorting are often used
to reduce the amount of neural data ... filter out data from inactive
neurons."  The pipeline here is the standard hardware-friendly one (cf.
NOEMA, MICRO'21): robust threshold detection per channel and an activity
ranking that selects the n' most informative channels.  Unit separation
lives in :mod:`repro.decoders.cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def mad_noise_estimate(signal: np.ndarray) -> float:
    """Median-absolute-deviation noise sigma (Quiroga's robust estimator).

    sigma ~= median(|x|) / 0.6745 — robust to the spikes themselves.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        raise ValueError("cannot estimate noise of an empty signal")
    return float(np.median(np.abs(signal)) / 0.6745)


@dataclass
class SpikeDetector:
    """Per-channel negative-threshold spike detector.

    Attributes:
        threshold_sigmas: detection threshold in noise sigmas (classic
            choice: 4-5).
        refractory_samples: samples to skip after each detection.
    """

    threshold_sigmas: float = 4.5
    refractory_samples: int = 16

    def __post_init__(self) -> None:
        if self.threshold_sigmas <= 0:
            raise ValueError("threshold must be positive (in sigmas)")
        if self.refractory_samples < 0:
            raise ValueError("refractory period must be non-negative")

    def detect(self, signal: np.ndarray) -> np.ndarray:
        """Spike sample-indices on one channel (negative crossings)."""
        signal = np.asarray(signal, dtype=float)
        sigma = mad_noise_estimate(signal)
        threshold = -self.threshold_sigmas * sigma
        below = signal < threshold
        # Crossing = first sample of each below-threshold run.
        crossings = np.flatnonzero(below & ~np.roll(below, 1))
        if below.size and below[0]:
            crossings = np.concatenate([[0], crossings[crossings != 0]])
        if self.refractory_samples == 0 or crossings.size == 0:
            return crossings
        kept = [int(crossings[0])]
        for idx in crossings[1:]:
            if idx - kept[-1] > self.refractory_samples:
                kept.append(int(idx))
        return np.asarray(kept, dtype=int)

    def detect_all(self, data: np.ndarray) -> list[np.ndarray]:
        """Run detection on every row of a (channels, samples) array."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("expected (channels, samples)")
        return [self.detect(row) for row in data]


def channel_activity_ranking(data: np.ndarray,
                             detector: SpikeDetector | None = None,
                             ) -> np.ndarray:
    """Channels ordered from most to least active (spike count, then
    variance as the tiebreaker)."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("expected (channels, samples)")
    detector = detector or SpikeDetector()
    counts = np.array([len(idx) for idx in detector.detect_all(data)],
                      dtype=float)
    variances = data.var(axis=1)
    # Lexicographic: primary key counts, secondary variance.
    order = np.lexsort((-variances, -counts))
    return order


def select_active_channels(data: np.ndarray, n_keep: int,
                           detector: SpikeDetector | None = None,
                           ) -> np.ndarray:
    """The channel-dropout selector: indices of the n' most active channels.

    Args:
        data: (channels, samples) recording block.
        n_keep: number of channels to retain (n' of Section 6.2).

    Returns:
        Sorted channel indices of the retained set.

    Raises:
        ValueError: if n_keep is out of range.
    """
    data = np.asarray(data, dtype=float)
    if not 1 <= n_keep <= data.shape[0]:
        raise ValueError(
            f"n_keep must lie in [1, {data.shape[0]}], got {n_keep}")
    ranking = channel_activity_ranking(data, detector)
    return np.sort(ranking[:n_keep])

"""Electrode-array geometry and volumetric-efficiency metrics.

The paper's area requirements (Section 3.2) reduce to two geometric
quantities: the channel spacing (target <= 20 um for one channel per neuron)
and the *volumetric efficiency* — the fraction of implant area devoted to
sensing, which Eq. 4 demands approach 1 as channel count grows.  This module
provides a concrete planar-grid geometry (ECoG/SPAD implants) plus the two
metrics as free functions usable on raw areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def channel_spacing(sensing_area_m2: float, n_channels: int) -> float:
    """Average center-to-center channel spacing on a planar sensing area.

    Assumes channels tile the sensing area on a square lattice, so the
    spacing is ``sqrt(area / n)``.

    Raises:
        ValueError: on non-positive area or channel count.
    """
    if sensing_area_m2 <= 0:
        raise ValueError("sensing area must be positive")
    if n_channels <= 0:
        raise ValueError("channel count must be positive")
    return math.sqrt(sensing_area_m2 / n_channels)


def volumetric_efficiency(sensing_area_m2: float,
                          total_area_m2: float) -> float:
    """Fraction of implant area in contact-sensing use (Eq. 4 numerator ratio).

    Raises:
        ValueError: if areas are non-positive or sensing exceeds total.
    """
    if total_area_m2 <= 0:
        raise ValueError("total area must be positive")
    if sensing_area_m2 < 0:
        raise ValueError("sensing area must be non-negative")
    if sensing_area_m2 > total_area_m2 * (1 + 1e-12):
        raise ValueError("sensing area cannot exceed total area")
    return min(1.0, sensing_area_m2 / total_area_m2)


@dataclass(frozen=True)
class ArrayGeometry:
    """Base description of an NI array.

    Attributes:
        n_channels: number of simultaneously recordable channels.
        sensing_area_m2: area in sensing contact with tissue.
        overhead_area_m2: non-sensing area (routing, pads, transceiver...).
    """

    n_channels: int
    sensing_area_m2: float
    overhead_area_m2: float

    def __post_init__(self) -> None:
        if self.n_channels <= 0:
            raise ValueError("n_channels must be positive")
        if self.sensing_area_m2 <= 0:
            raise ValueError("sensing_area_m2 must be positive")
        if self.overhead_area_m2 < 0:
            raise ValueError("overhead_area_m2 must be non-negative")

    @property
    def total_area_m2(self) -> float:
        """Total tissue-contact area of the implant."""
        return self.sensing_area_m2 + self.overhead_area_m2

    @property
    def spacing_m(self) -> float:
        """Average channel spacing."""
        return channel_spacing(self.sensing_area_m2, self.n_channels)

    @property
    def volumetric_efficiency(self) -> float:
        """Sensing / total area fraction."""
        return volumetric_efficiency(self.sensing_area_m2, self.total_area_m2)

    def meets_spacing_target(self, target_m: float = 20e-6) -> bool:
        """True when spacing satisfies the one-channel-per-neuron goal."""
        return self.spacing_m <= target_m


class GridArray(ArrayGeometry):
    """A planar rectangular grid of channels (ECoG MEA or SPAD imager)."""

    def __init__(self, rows: int, cols: int, pitch_m: float,
                 overhead_area_m2: float = 0.0) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if pitch_m <= 0:
            raise ValueError("pitch must be positive")
        sensing = rows * cols * pitch_m ** 2
        super().__init__(n_channels=rows * cols,
                         sensing_area_m2=sensing,
                         overhead_area_m2=overhead_area_m2)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "pitch_m", pitch_m)

    def channel_position(self, channel: int) -> tuple[float, float]:
        """(x, y) position of a channel's center, row-major indexing."""
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} out of range")
        row, col = divmod(channel, self.cols)
        return ((col + 0.5) * self.pitch_m, (row + 0.5) * self.pitch_m)

"""Scaling implants to and beyond 1024 channels (paper Sections 4.1-4.2).

``scale_to_standard`` applies Eq. 1 with the per-SoC corrections of
Section 4.1, producing a :class:`ScaledSoC` — the 1024-channel anchor point
every later analysis builds on.  ``ScaledSoC`` then provides the
sensing-side extrapolation of Eq. 5 (linear power and area in n), the
non-sensing split, the Eq. 3 power budget, and the Eq. 6 throughput.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.core.socs import (
    HALO_STAR_NAME,
    STANDARD_CHANNELS,
    ScalingRule,
    SoCRecord,
)
from repro.thermal.budget import power_budget
from repro.units import SAFE_POWER_DENSITY


def sensing_throughput(n_channels: int, sample_bits: int,
                       sampling_rate_hz: float) -> float:
    """Eq. 6: raw digitized data rate of the NI [bit/s].

    Raises:
        ValueError: on non-positive arguments.
    """
    if n_channels <= 0:
        raise ValueError("channel count must be positive")
    if sample_bits <= 0:
        raise ValueError("sample bitwidth must be positive")
    if sampling_rate_hz <= 0:
        raise ValueError("sampling rate must be positive")
    return float(sample_bits) * n_channels * sampling_rate_hz


@dataclass(frozen=True)
class ScaledSoC:
    """A design point normalized to the 1024-channel standard.

    Attributes:
        record: the underlying Table 1 design.
        name: display name (HALO becomes HALO*).
        area_m2: total area at 1024 channels.
        power_w: total power at 1024 channels.
        n_channels: the standard channel count (1024).
    """

    record: SoCRecord
    name: str
    area_m2: float
    power_w: float
    n_channels: int = STANDARD_CHANNELS

    # ---------------------------------------------------------------- anchor
    @property
    def power_density_w_m2(self) -> float:
        """Power density at the 1024-channel anchor."""
        return self.power_w / self.area_m2

    @property
    def sampling_hz(self) -> float:
        """NI sampling rate f."""
        return self.record.sampling_hz

    @property
    def sample_bits(self) -> int:
        """Digitized sample bitwidth d."""
        return self.record.sample_bits

    # ------------------------------------------------------- sensing split
    @property
    def sensing_area_anchor_m2(self) -> float:
        """A_sensing(1024)."""
        return self.record.sensing_area_fraction * self.area_m2

    @property
    def non_sensing_area_m2(self) -> float:
        """A_non-sensing(1024): transceiver, control, pads."""
        return self.area_m2 - self.sensing_area_anchor_m2

    @property
    def sensing_power_anchor_w(self) -> float:
        """P_sensing(1024)."""
        return (1.0 - self.record.comm_power_fraction) * self.power_w

    @property
    def comm_power_anchor_w(self) -> float:
        """P_non-sensing(1024), attributed to the transceiver."""
        return self.record.comm_power_fraction * self.power_w

    # --------------------------------------------------------- Eq. 5 scaling
    def sensing_area_m2(self, n_channels: int) -> float:
        """Eq. 5: A_sensing(n) = n * A_sensing(1024) / 1024."""
        _check_channels(n_channels)
        return self.sensing_area_anchor_m2 * n_channels / self.n_channels

    def sensing_power_w(self, n_channels: int) -> float:
        """Eq. 5: P_sensing(n) = n * P_sensing(1024) / 1024."""
        _check_channels(n_channels)
        return self.sensing_power_anchor_w * n_channels / self.n_channels

    # ----------------------------------------------------------- throughput
    def sensing_throughput_bps(self, n_channels: int | None = None) -> float:
        """Eq. 6: T_sensing = d * n * f."""
        n = self.n_channels if n_channels is None else n_channels
        return sensing_throughput(n, self.sample_bits, self.sampling_hz)

    @functools.cached_property
    def implied_energy_per_bit_j(self) -> float:
        """Transceiver energy per bit implied by the anchor split:
        E_b = P_non-sensing(1024) / T_sensing(1024).

        Fixed per design, so computed once per instance; equality and
        hashing stay on the dataclass fields."""
        return self.comm_power_anchor_w / self.sensing_throughput_bps()

    # ---------------------------------------------------------------- budget
    def budget_w(self, area_m2: float | None = None) -> float:
        """Eq. 3 power budget; defaults to the anchor area."""
        return power_budget(self.area_m2 if area_m2 is None else area_m2,
                            SAFE_POWER_DENSITY)


def scale_to_standard(record: SoCRecord,
                      n_target: int = STANDARD_CHANNELS) -> ScaledSoC:
    """Section 4.1: normalize a Table 1 design to the channel standard.

    Applies the record's scaling rule (Eq. 1 / linear / nominal / override)
    and its correction divisors.

    Args:
        record: a Table 1 design.
        n_target: target channel count (1024 unless exploring).

    Returns:
        The scaled design point.
    """
    _check_channels(n_target)
    ratio = n_target / record.n_channels
    rule = record.scaling_rule
    if rule is ScalingRule.OVERRIDE:
        if record.override_area_m2 is None or record.override_power_w is None:
            raise ValueError(f"{record.name}: OVERRIDE rule without values")
        area = record.override_area_m2
        power = record.override_power_w
    elif rule is ScalingRule.NOMINAL:
        area = record.area_m2
        power = record.power_w
    elif rule is ScalingRule.LINEAR:
        area = record.area_m2 * ratio
        power = record.power_w * ratio
    else:  # Eq. 1
        area = record.area_m2 * math.sqrt(ratio)
        power = record.power_w * ratio
    area /= record.area_correction
    power /= record.power_correction
    name = HALO_STAR_NAME if rule is ScalingRule.OVERRIDE else record.name
    return ScaledSoC(record=record, name=name, area_m2=area, power_w=power,
                     n_channels=n_target)


def _check_channels(n_channels: int) -> None:
    if n_channels <= 0:
        raise ValueError("channel count must be positive")

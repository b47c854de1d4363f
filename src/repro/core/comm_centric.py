"""Communication-centric architectures with energy-efficient modulation.

Paper Section 5.1 evaluates two scaling hypotheses for OOK-based designs
streaming all raw neural data (Fig. 5 and Fig. 6):

* **Naive design** — each added channel brings its own dedicated
  non-sensing (transceiver) power *and* area, so total power and area both
  scale linearly and the power-to-budget ratio stays constant; volumetric
  efficiency never improves.
* **High-margin design** — the 1024-channel transceiver/antenna absorb the
  higher data rate at constant Eb without growing A_non-sensing; power
  still grows linearly but area grows more slowly (only sensing area
  scales), so P_soc eventually crosses P_budget while the sensing-area
  fraction climbs toward 1 (Eq. 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.scaling import ScaledSoC
from repro.units import SAFE_POWER_DENSITY


class DesignHypothesis(enum.Enum):
    """The two Section 5.1 scaling hypotheses."""

    NAIVE = "naive"
    HIGH_MARGIN = "high_margin"


@dataclass(frozen=True)
class CommCentricPoint:
    """One (SoC, n) evaluation of a communication-centric design.

    Attributes:
        soc_name: design name.
        hypothesis: naive or high-margin.
        n_channels: NI channel count.
        sensing_power_w / non_sensing_power_w: the Fig. 5 bar split.
        total_power_w: P_soc(n).
        sensing_area_m2 / total_area_m2: the Fig. 6 numerator/denominator.
        budget_w: Eq. 3 P_budget(n).
    """

    soc_name: str
    hypothesis: DesignHypothesis
    n_channels: int
    sensing_power_w: float
    non_sensing_power_w: float
    total_power_w: float
    sensing_area_m2: float
    total_area_m2: float
    budget_w: float

    @property
    def power_ratio(self) -> float:
        """P_soc / P_budget — the Fig. 5 y-axis."""
        return self.total_power_w / self.budget_w

    @property
    def sensing_area_fraction(self) -> float:
        """A_sensing / A_soc — the Fig. 6 y-axis."""
        return self.sensing_area_m2 / self.total_area_m2

    @property
    def within_budget(self) -> bool:
        """True while the design respects the 40 mW/cm^2 limit."""
        return self.power_ratio <= 1.0


def evaluate_comm_centric(soc: ScaledSoC, n_channels: int,
                          hypothesis: DesignHypothesis) -> CommCentricPoint:
    """Project a scaled SoC to ``n_channels`` under a design hypothesis.

    In both hypotheses sensing power/area scale linearly (Eq. 5) and the
    transceiver runs at constant energy per bit, so non-sensing power is
    linear in the Eq. 6/7 throughput (T_comm ~ T_sensing); they differ only
    in how non-sensing *area* scales.
    """
    if n_channels < soc.n_channels:
        raise ValueError("communication-centric scaling explores "
                         f"n >= {soc.n_channels}")
    x = n_channels / soc.n_channels
    sensing_power = soc.sensing_power_w(n_channels)
    non_sensing_power = soc.comm_power_anchor_w * x
    sensing_area = soc.sensing_area_m2(n_channels)
    if hypothesis is DesignHypothesis.NAIVE:
        non_sensing_area = soc.non_sensing_area_m2 * x
    else:
        non_sensing_area = soc.non_sensing_area_m2
    total_area = sensing_area + non_sensing_area
    return CommCentricPoint(
        soc_name=soc.name,
        hypothesis=hypothesis,
        n_channels=n_channels,
        sensing_power_w=sensing_power,
        non_sensing_power_w=non_sensing_power,
        total_power_w=sensing_power + non_sensing_power,
        sensing_area_m2=sensing_area,
        total_area_m2=total_area,
        budget_w=total_area * SAFE_POWER_DENSITY,
    )


def budget_crossing_channels(soc: ScaledSoC,
                             hypothesis: DesignHypothesis,
                             n_max: int = 1 << 20) -> int | None:
    """Smallest n at which P_soc exceeds P_budget, or None if it never does.

    For the naive design the ratio is constant, so the answer is None
    whenever the 1024-channel anchor is within budget.  For the high-margin
    design the closed form follows from linear power vs affine area.
    """
    anchor = evaluate_comm_centric(soc, soc.n_channels, hypothesis)
    if anchor.power_ratio > 1.0:
        return soc.n_channels
    if hypothesis is DesignHypothesis.NAIVE:
        return None
    # High margin: P0*x <= D*(As*x + An)  with D the density limit.
    p0 = soc.power_w
    slope = SAFE_POWER_DENSITY * soc.sensing_area_anchor_m2
    intercept = SAFE_POWER_DENSITY * soc.non_sensing_area_m2
    if p0 <= slope:
        return None  # power slope never outruns the budget slope
    x_cross = intercept / (p0 - slope)
    n_cross = int(x_cross * soc.n_channels) + 1
    return n_cross if n_cross <= n_max else None

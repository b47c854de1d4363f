"""The power-density budget of Eq. 3.

    P_soc(n) / A_soc(n) <= 40 mW/cm^2
    P_budget(n) = A_soc(n) * 40 mW/cm^2

All quantities in SI (watts, square meters); ``repro.units`` converts from
the literature's mW/cm^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import SAFE_POWER_DENSITY, to_mm2, to_mw, to_mw_per_cm2


def power_density(power_w: float, area_m2: float) -> float:
    """Surface power density [W/m^2].

    Raises:
        ValueError: on non-positive area or negative power.
    """
    if area_m2 <= 0:
        raise ValueError("area must be positive")
    if power_w < 0:
        raise ValueError("power must be non-negative")
    return power_w / area_m2


def power_budget(area_m2: float,
                 density_limit_w_m2: float = SAFE_POWER_DENSITY) -> float:
    """Eq. 3: maximum safe total power [W] for a given contact area."""
    if area_m2 <= 0:
        raise ValueError("area must be positive")
    if density_limit_w_m2 <= 0:
        raise ValueError("density limit must be positive")
    return area_m2 * density_limit_w_m2


@dataclass(frozen=True)
class SafetyReport:
    """Safety assessment of one implant design point.

    Attributes:
        power_w: total implant power.
        area_m2: tissue-contact area.
        density_w_m2: resulting power density.
        budget_w: Eq. 3 power budget for this area.
        margin_w: budget minus power (negative when unsafe).
        safe: verdict.
    """

    power_w: float
    area_m2: float
    density_w_m2: float
    budget_w: float
    margin_w: float
    safe: bool

    def describe(self) -> str:
        """One-line human-readable summary."""
        verdict = "SAFE" if self.safe else "UNSAFE"
        return (f"{verdict}: {to_mw(self.power_w):.2f} mW over "
                f"{to_mm2(self.area_m2):.1f} mm^2 = "
                f"{to_mw_per_cm2(self.density_w_m2):.1f} mW/cm^2 "
                f"(budget {to_mw(self.budget_w):.2f} mW, margin "
                f"{to_mw(self.margin_w):+.2f} mW)")


def assess(power_w: float, area_m2: float,
           density_limit_w_m2: float = SAFE_POWER_DENSITY) -> SafetyReport:
    """Full safety assessment for a design point."""
    density = power_density(power_w, area_m2)
    budget = power_budget(area_m2, density_limit_w_m2)
    return SafetyReport(power_w=power_w, area_m2=area_m2,
                        density_w_m2=density, budget_w=budget,
                        margin_w=budget - power_w,
                        safe=density <= density_limit_w_m2)

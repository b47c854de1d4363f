"""Thermal safety substrate: the 40 mW/cm^2 budget and tissue heating.

Paper Section 3.2: brain tissue tolerates at most a 1-2 degC rise, which —
given cortical blood perfusion — translates into a safe implant power
density of 40 mW/cm^2.  ``power_budget`` is Eq. 3; ``TissueThermalModel``
is the first-order uniform-dissipation heating model (after Serrano et al.)
that justifies using a flat density limit in the first place.

The finite-volume chip heat solver (hot-spot check on a non-uniform power
map) is not re-exported: import it from :mod:`repro.thermal.grid`, so
that importing this package does not load it.
"""

from repro.thermal.budget import (
    power_budget,
    power_density,
    SafetyReport,
    assess,
)
from repro.thermal.model import TissueThermalModel

__all__ = [
    "power_budget",
    "power_density",
    "SafetyReport",
    "assess",
    "TissueThermalModel",
]

"""Thermal safety substrate: the 40 mW/cm^2 budget and tissue heating.

Paper Section 3.2: brain tissue tolerates at most a 1-2 degC rise, which —
given cortical blood perfusion — translates into a safe implant power
density of 40 mW/cm^2.

* :mod:`repro.thermal.budget` — ``power_budget`` (Eq. 3) and the
  ``assess`` safety check.
* :mod:`repro.thermal.model` — ``TissueThermalModel``, the first-order
  uniform-dissipation heating model (after Serrano et al.) that
  justifies using a flat density limit in the first place.
* :mod:`repro.thermal.grid` — the finite-volume chip heat solver
  (hot-spot check on a non-uniform power map); no command imports it
  yet.
"""

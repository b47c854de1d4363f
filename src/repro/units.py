"""Unit helpers and physical constants used throughout the MINDFUL framework.

All internal computation in :mod:`repro` uses base SI units (watts, meters,
joules, hertz, seconds).  BCI literature, however, reports quantities in a mix
of mW, cm^2, mm^2, pJ/bit, kHz, and dB.  This module provides explicit,
name-carrying conversion helpers so call sites read like the paper's
equations (``mw(38.9)``, ``mw_per_cm2(40.0)``) instead of bare magic factors.

The module also centralizes the physical constants the wireless-link model
depends on (Boltzmann constant, body temperature) so that the link-budget
derivation in :mod:`repro.link` is auditable in one place.
"""

from __future__ import annotations

import math

# --------------------------------------------------------------------------
# Physical constants
# --------------------------------------------------------------------------

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23

#: Human body temperature [K]; thermal noise floor reference for an implanted
#: receiver sits at body temperature, not the 290 K lab convention.
BODY_TEMPERATURE_K = 310.0

#: Safe power-density limit for an implanted device [W/m^2].
#: The paper (Section 3.2) uses 40 mW/cm^2 following Wolf & Reichert.
SAFE_POWER_DENSITY = 40e-3 / 1e-4  # 40 mW/cm^2 expressed in W/m^2

#: Maximum safe tissue temperature increase [K] (Section 3.2, 1-2 degC).
SAFE_TEMPERATURE_RISE_K = 1.0

#: Target channel spacing for one-channel-per-neuron sensing [m]
#: (Section 3.2, <= 20 um).
TARGET_CHANNEL_SPACING = 20e-6


# --------------------------------------------------------------------------
# Power
# --------------------------------------------------------------------------

def mw(value: float) -> float:
    """Convert milliwatts to watts."""
    return value * 1e-3


def to_mw(watts: float) -> float:
    """Convert watts to milliwatts."""
    return watts * 1e3


def uw(value: float) -> float:
    """Convert microwatts to watts."""
    return value * 1e-6


def nw(value: float) -> float:
    """Convert nanowatts to watts."""
    return value * 1e-9


# --------------------------------------------------------------------------
# Area
# --------------------------------------------------------------------------

def mm2(value: float) -> float:
    """Convert square millimeters to square meters."""
    return value * 1e-6


def to_mm2(m2: float) -> float:
    """Convert square meters to square millimeters."""
    return m2 * 1e6


def cm2(value: float) -> float:
    """Convert square centimeters to square meters."""
    return value * 1e-4


def to_cm2(m2: float) -> float:
    """Convert square meters to square centimeters."""
    return m2 * 1e4


def mm(value: float) -> float:
    """Convert millimeters to meters."""
    return value * 1e-3



# --------------------------------------------------------------------------
# Power density
# --------------------------------------------------------------------------

def mw_per_cm2(value: float) -> float:
    """Convert mW/cm^2 (the unit of Table 1) to W/m^2."""
    return value * 1e-3 / 1e-4


def to_mw_per_cm2(w_per_m2: float) -> float:
    """Convert W/m^2 to mW/cm^2."""
    return w_per_m2 * 1e-4 / 1e-3


# --------------------------------------------------------------------------
# Energy
# --------------------------------------------------------------------------

def fj(value: float) -> float:
    """Convert femtojoules to joules."""
    return value * 1e-15


# --------------------------------------------------------------------------
# Frequency / rate / time
# --------------------------------------------------------------------------

def khz(value: float) -> float:
    """Convert kilohertz to hertz."""
    return value * 1e3


def to_khz(hz: float) -> float:
    """Convert hertz to kilohertz."""
    return hz / 1e3



def mbps(value: float) -> float:
    """Convert megabits/second to bits/second."""
    return value * 1e6


def to_mbps(bps: float) -> float:
    """Convert bits/second to megabits/second."""
    return bps * 1e-6


def gbps(value: float) -> float:
    """Convert gigabits/second to bits/second."""
    return value * 1e9


def ns(value: float) -> float:
    """Convert nanoseconds to seconds."""
    return value * 1e-9



def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * 1e-3


def to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return seconds * 1e3


def to_us(seconds: float) -> float:
    """Convert seconds to microseconds."""
    return seconds * 1e6


# --------------------------------------------------------------------------
# Decibels
# --------------------------------------------------------------------------

def db_to_linear(db: float) -> float:
    """Convert a power ratio in decibels to a linear ratio."""
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear power ratio to decibels.

    Raises:
        ValueError: if ``ratio`` is not strictly positive.
    """
    if ratio <= 0.0:
        raise ValueError(f"dB undefined for non-positive ratio {ratio!r}")
    return 10.0 * math.log10(ratio)


def thermal_noise_density(temperature_k: float = BODY_TEMPERATURE_K,
                          noise_figure_db: float = 0.0) -> float:
    """One-sided thermal noise power spectral density N0 [W/Hz].

    Args:
        temperature_k: physical temperature of the receiver front end.
        noise_figure_db: receiver noise figure folded into N0.
    """
    if temperature_k <= 0.0:
        raise ValueError("temperature must be positive")
    return BOLTZMANN * temperature_k * db_to_linear(noise_figure_db)

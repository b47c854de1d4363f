"""Communication-centric architectures with advanced modulation (Fig. 7).

Paper Section 5.2: beyond 1024 channels the antenna bandwidth is fixed, so
each additional 1024-channel block forces one more bit per QAM symbol:

    b(n) = ceil(n / 1024)

Solving the QAM equation (BER = 1e-6, path loss 60 dB, margin 20 dB) gives
the ideal energy per bit Eb(b); a real transmitter burns Eb(b)/efficiency.
The design stays safe while

    P_sensing(n) + T_sensing(n) * Eb(b(n)) / efficiency <= P_budget(n)

with the non-sensing area frozen at its 1024-channel value (volumetric
efficiency forbids growing it).  ``minimum_qam_efficiency`` inverts that
inequality — the Fig. 7 y-axis; ``max_channels_at_efficiency`` inverts it
the other way (the paper's ~2200 channels at 20 %, ~4000 at 100 %).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.frontier import first_run_frontier
from repro.core.scaling import ScaledSoC
from repro.link.budget import LinkBudget
from repro.units import SAFE_POWER_DENSITY


def bits_per_symbol_for(n_channels: int,
                        standard: int = 1024) -> int:
    """b(n): one more bit per symbol for each 1024-channel block."""
    if n_channels <= 0:
        raise ValueError("channel count must be positive")
    return math.ceil(n_channels / standard)


@dataclass(frozen=True)
class QamDesignPoint:
    """One (SoC, n) evaluation of the advanced-modulation design.

    Attributes:
        soc_name: design name.
        n_channels: NI channel count.
        bits_per_symbol: QAM order exponent in use.
        ideal_energy_per_bit_j: Eb(b) at 100 % efficiency.
        comm_power_at_full_efficiency_w: T * Eb(b).
        available_power_w: P_budget(n) - P_sensing(n).
        min_efficiency: minimum QAM efficiency keeping the design safe;
            ``inf`` when sensing alone exceeds the budget.
    """

    soc_name: str
    n_channels: int
    bits_per_symbol: int
    ideal_energy_per_bit_j: float
    comm_power_at_full_efficiency_w: float
    available_power_w: float
    min_efficiency: float

    @property
    def feasible(self) -> bool:
        """True when even an ideal (100 %-efficient) QAM suffices."""
        return self.min_efficiency <= 1.0


def evaluate_qam_design(soc: ScaledSoC, n_channels: int,
                        budget: LinkBudget | None = None) -> QamDesignPoint:
    """Minimum QAM efficiency for a scaled SoC at ``n_channels``."""
    if n_channels < soc.n_channels:
        raise ValueError(f"QAM scaling explores n >= {soc.n_channels}")
    budget = budget or LinkBudget()
    bits = bits_per_symbol_for(n_channels, soc.n_channels)
    energy = _ideal_energy_per_bit(bits, budget)
    throughput = soc.sensing_throughput_bps(n_channels)
    comm_power = throughput * energy

    area = soc.sensing_area_m2(n_channels) + soc.non_sensing_area_m2
    available = area * SAFE_POWER_DENSITY - soc.sensing_power_w(n_channels)
    if available <= 0.0:
        efficiency = math.inf
    else:
        efficiency = comm_power / available
    return QamDesignPoint(
        soc_name=soc.name,
        n_channels=n_channels,
        bits_per_symbol=bits,
        ideal_energy_per_bit_j=energy,
        comm_power_at_full_efficiency_w=comm_power,
        available_power_w=max(0.0, available),
        min_efficiency=efficiency,
    )


def _ideal_energy_per_bit(bits_per_symbol: int,
                          budget: LinkBudget) -> float:
    """Eb(b) at 100 % efficiency, ``inf`` for unreachable orders."""
    try:
        return budget.transmit_energy_per_bit(
            bits_per_symbol=bits_per_symbol, efficiency=1.0, scheme="qam")
    except ValueError:
        # Absurd constellation orders overflow the Eb/N0 bracket —
        # physically they are simply unreachable.
        return math.inf


def max_channels_at_efficiency(soc: ScaledSoC,
                               efficiency: float,
                               budget: LinkBudget | None = None,
                               step: int = 64,
                               n_limit: int = 32768) -> int:
    """Largest channel count a given QAM efficiency can sustain.

    Scans in ``step``-channel increments (the efficiency requirement is
    piecewise smooth with jumps at 1024-channel block boundaries, so a
    plain scan is robust where bisection is not).  The scan is lazy: it
    evaluates :func:`evaluate_qam_design` point by point and stops at
    the first infeasible point after a feasible run, so it solves Eb/N0
    only for the QAM orders the scan reaches.

    Returns:
        The last channel count of the first feasible run on the
        ``step`` grid from ``soc.n_channels`` to ``n_limit``, or 0 when
        no grid point is feasible.
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    budget = budget or LinkBudget()
    grid = range(soc.n_channels, n_limit + 1, step)
    return first_run_frontier(
        grid, (evaluate_qam_design(soc, n, budget).min_efficiency
               <= efficiency for n in grid))

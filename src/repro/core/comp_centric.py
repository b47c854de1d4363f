"""Computation-centric architectures with on-implant DNNs (Fig. 10).

Paper Section 5.3: instead of streaming raw data, the implant runs the DNN
and transmits only its output (Eq. 8), paying the Eq. 13 compute power
lower bound:

    P_soc(n) = P_sensing(n) + P_comp(n) + T_comm(n_out) * Eb

where P_comp comes from the best of the pipelined / non-pipelined MAC
schedules under the real-time deadline t = 1/f, and the non-sensing area
is reused for computation (as in the QAM analysis, it must not grow).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.accel.schedule import Schedule, cached_best_schedule
from repro.accel.tech import TECH_45NM, TechnologyNode
from repro.core.scaling import ScaledSoC
from repro.dnn.models import speech_dncnn_profile, speech_mlp_profile
from repro.dnn.network import NetworkProfile
from repro.units import SAFE_POWER_DENSITY


class Workload(enum.Enum):
    """The paper's two Section 5.3 DNN workloads."""

    MLP = "mlp"
    DNCNN = "dncnn"


#: Workload -> its network's profile at a channel count, computed from
#: the layer widths without building a :class:`Network`.
_PROFILES: dict[Workload, Callable[[int], NetworkProfile]] = {
    Workload.MLP: speech_mlp_profile,
    Workload.DNCNN: speech_dncnn_profile,
}


@lru_cache(maxsize=4096)
def _workload_profile(workload: Workload, n_channels: int) -> NetworkProfile:
    """The profile of a workload at a channel count, memoized.

    The profiles are deterministic in (workload, n), so the sweeps share
    one entry per grid point across every SoC on the grid.
    """
    return _PROFILES[workload](n_channels)


@dataclass(frozen=True)
class CompCentricPoint:
    """One (SoC, workload, n) computation-centric evaluation.

    Attributes:
        soc_name: design name.
        workload: which DNN runs on the implant.
        n_channels: NI channel count (also the DNN's input channel count).
        sensing_power_w: Eq. 5 sensing power.
        comp_power_w: Eq. 13 lower bound (``inf`` if no schedule meets the
            deadline).
        comm_power_w: Eq. 8/9 output-transmission power.
        budget_w: Eq. 3 budget over sensing area + frozen non-sensing area.
        schedule: the winning MAC schedule (None when infeasible).
        total_macs: accumulate steps per inference.
        model_parameters: trainable parameter count ("model size").
    """

    soc_name: str
    workload: Workload
    n_channels: int
    sensing_power_w: float
    comp_power_w: float
    comm_power_w: float
    budget_w: float
    schedule: Schedule | None
    total_macs: int
    model_parameters: int

    @property
    def total_power_w(self) -> float:
        """P_soc(n) including the DNN lower bound."""
        return self.sensing_power_w + self.comp_power_w + self.comm_power_w

    @property
    def power_ratio(self) -> float:
        """P_soc / P_budget — the Fig. 10 y-axis."""
        return self.total_power_w / self.budget_w

    @property
    def fits(self) -> bool:
        """True when the DNN integrates within the power budget."""
        return self.power_ratio <= 1.0


def evaluate_comp_centric(soc: ScaledSoC,
                          workload: Workload,
                          n_channels: int,
                          tech: TechnologyNode = TECH_45NM,
                          ) -> CompCentricPoint:
    """Project a scaled SoC running a DNN workload at ``n_channels``.

    Args:
        soc: the 1024-channel anchor design.
        workload: MLP or DN-CNN.
        n_channels: target channel count (the DNN input scales with it).
        tech: MAC technology node (45 nm in Fig. 10; 12 nm for the
            technology-scaling optimization).

    The network's MAC profile comes from the workload's layer widths
    (:func:`_workload_profile`); no network is built.
    """
    if n_channels <= 0:
        raise ValueError("channel count must be positive")
    profile = _workload_profile(workload, n_channels)
    deadline = 1.0 / soc.sampling_hz
    schedule = cached_best_schedule(profile.profiles, deadline, tech)
    comp_power = schedule.power_w(tech) if schedule else math.inf

    comm_power = (profile.output_values * soc.sample_bits * soc.sampling_hz
                  * soc.implied_energy_per_bit_j)
    area = soc.sensing_area_m2(n_channels) + soc.non_sensing_area_m2
    return CompCentricPoint(
        soc_name=soc.name,
        workload=workload,
        n_channels=n_channels,
        sensing_power_w=soc.sensing_power_w(n_channels),
        comp_power_w=comp_power,
        comm_power_w=comm_power,
        budget_w=area * SAFE_POWER_DENSITY,
        schedule=schedule,
        total_macs=profile.total_macs,
        model_parameters=profile.n_parameters,
    )


def power_ratio_curve(soc: ScaledSoC,
                      workload: Workload,
                      channel_counts: np.ndarray,
                      tech: TechnologyNode = TECH_45NM) -> np.ndarray:
    """P_soc/P_budget over a channel grid (the Fig. 10 y-axis).

    Network profiles and MAC schedules are memoized
    (:func:`_workload_profile`,
    :func:`repro.accel.schedule.cached_best_schedule`), so sweeping the
    same grid across several SoCs costs one schedule search per distinct
    (workload, n, deadline, technology) rather than one per point.
    """
    return np.array([
        evaluate_comp_centric(soc, workload, int(n), tech).power_ratio
        for n in np.asarray(channel_counts).tolist()])


def max_feasible_channels(soc: ScaledSoC,
                          workload: Workload,
                          tech: TechnologyNode = TECH_45NM,
                          step: int = 64,
                          n_limit: int = 16384,
                          chunk: int = 16) -> int:
    """Largest n at which the workload still fits the power budget.

    Scans upward in ``step`` increments from ``step`` (the feasibility
    frontier is effectively monotone — compute power grows quadratically
    while the budget grows linearly — but depth changes make it only
    piecewise smooth, so scanning beats bisection for robustness).  The
    grid is evaluated in ``chunk``-sized batches through
    :func:`power_ratio_curve`, stopping at the first failure after a
    feasible point exactly like the historical scalar scan.

    Returns:
        The maximum feasible channel count, or 0 when the workload never
        fits this SoC.
    """
    grid = np.arange(step, n_limit + 1, step, dtype=np.int64)
    best = 0
    for start in range(0, grid.size, chunk):
        block = grid[start:start + chunk]
        fits = power_ratio_curve(soc, workload, block, tech) <= 1.0
        for n, ok in zip(block.tolist(), fits.tolist()):
            if ok:
                best = n
            elif best:
                return best
    return best

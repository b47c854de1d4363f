"""Closed-loop BCI analysis — the paper's declared future extension.

Section 7: "In the future, we plan to extend this work to accommodate
closed-loop BCIs."  A closed-loop system senses, decodes, and *stimulates*
back into tissue, and the whole loop must complete within the brain's
reaction time — the paper's Section 2 cites ~0.18 s as the bound some
real-time definitions use.

This module composes the existing pieces into that loop:

    latency = acquisition window + decode latency (Eq. 11/14 schedule)
              + stimulation setup
    power   = P_sensing + P_comp + P_stim  (all inside the Eq. 3 budget;
              a closed-loop implant may not need the transmitter at all)

Stimulation power follows the standard charge-balanced biphasic pulse
model: P = rate * amplitude^2 * impedance * pulse_width * 2 per electrode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.accel.schedule import Schedule, cached_best_schedule
from repro.accel.tech import TECH_45NM, TechnologyNode
from repro.core.comp_centric import Workload, workload_profile
from repro.core.frontier import first_run_frontier
from repro.core.scaling import ScaledSoC
from repro.dnn.macs import LayerMacs
from repro.units import SAFE_POWER_DENSITY, ms

#: Brain reaction time used as the real-time bound (Section 2, ~0.18 s).
BRAIN_REACTION_TIME_S = 0.18


@dataclass(frozen=True)
class StimulationConfig:
    """Charge-balanced biphasic stimulation parameters.

    Attributes:
        n_electrodes: electrodes driven per decision.
        pulse_rate_hz: stimulation pulse rate per electrode.
        amplitude_a: current amplitude per phase.
        pulse_width_s: duration of each phase.
        electrode_impedance_ohm: tissue-electrode interface impedance.
        driver_overhead: circuit overhead multiplier (> 1).
    """

    n_electrodes: int = 16
    pulse_rate_hz: float = 100.0
    amplitude_a: float = 100e-6
    pulse_width_s: float = ms(0.2)
    electrode_impedance_ohm: float = 10e3
    driver_overhead: float = 1.5

    def __post_init__(self) -> None:
        if self.n_electrodes <= 0:
            raise ValueError("electrode count must be positive")
        if min(self.pulse_rate_hz, self.amplitude_a, self.pulse_width_s,
               self.electrode_impedance_ohm) <= 0:
            raise ValueError("stimulation parameters must be positive")
        if self.driver_overhead < 1.0:
            raise ValueError("driver overhead must be >= 1")

    @property
    def power_w(self) -> float:
        """Average stimulation power across all electrodes."""
        per_pulse_energy = (self.amplitude_a ** 2
                            * self.electrode_impedance_ohm
                            * self.pulse_width_s * 2.0)  # biphasic
        return (self.n_electrodes * self.pulse_rate_hz * per_pulse_energy
                * self.driver_overhead)


@dataclass(frozen=True)
class ClosedLoopPoint:
    """One closed-loop design evaluation.

    Attributes:
        soc_name: design name.
        n_channels: NI channel count.
        acquisition_s: input-window duration (samples / f).
        decode_s: DNN latency under the chosen schedule.
        stimulation_s: stimulation onset delay (one pulse period).
        sensing_power_w / comp_power_w / stim_power_w: power breakdown.
        budget_w: Eq. 3 budget.
        schedule: decode schedule (None when infeasible).
        deadline_s: the loop's real-time bound.
    """

    soc_name: str
    n_channels: int
    acquisition_s: float
    decode_s: float
    stimulation_s: float
    sensing_power_w: float
    comp_power_w: float
    stim_power_w: float
    budget_w: float
    schedule: Schedule | None
    deadline_s: float

    @property
    def loop_latency_s(self) -> float:
        """End-to-end reaction latency of the loop."""
        return self.acquisition_s + self.decode_s + self.stimulation_s

    @property
    def meets_deadline(self) -> bool:
        """True when the loop completes within the reaction-time bound."""
        return (math.isfinite(self.loop_latency_s)
                and self.loop_latency_s <= self.deadline_s)

    @property
    def total_power_w(self) -> float:
        """Implant power for the closed loop (no telemetry transmitter)."""
        return self.sensing_power_w + self.comp_power_w + self.stim_power_w

    @property
    def power_ratio(self) -> float:
        """P_soc / P_budget."""
        return self.total_power_w / self.budget_w

    @property
    def feasible(self) -> bool:
        """Within both the power budget and the latency deadline."""
        return self.meets_deadline and self.power_ratio <= 1.0


def max_channels_closed_loop(soc: ScaledSoC,
                             workload: Workload = Workload.MLP,
                             tech: TechnologyNode = TECH_45NM,
                             step: int = 256,
                             n_limit: int = 16384,
                             **kwargs) -> int:
    """Largest n at which the closed loop stays feasible.

    Args:
        soc: the anchor design.
        workload: decoder network family, scaled to each channel count.
        tech: MAC technology node.
        step / n_limit: scan granularity and ceiling.
        **kwargs: forwarded to :func:`evaluate_closed_loop`.
    """
    def feasible(n: int) -> bool:
        profiles = workload_profile(workload, n).profiles
        return evaluate_closed_loop(soc, profiles, n, tech=tech,
                                    **kwargs).feasible

    grid = range(step, n_limit + 1, step)
    return first_run_frontier(grid, map(feasible, grid))


def evaluate_closed_loop(soc: ScaledSoC,
                         profiles: tuple[LayerMacs, ...],
                         n_channels: int,
                         window_samples: int = 4,
                         stimulation: StimulationConfig | None = None,
                         tech: TechnologyNode = TECH_45NM,
                         deadline_s: float = BRAIN_REACTION_TIME_S,
                         ) -> ClosedLoopPoint:
    """Assess a closed-loop implant running a decoder network.

    The decode stage gets whatever time the acquisition window leaves of
    the reaction budget; Eq. 11/14 then sizes the MAC pool for that
    deadline (a much looser one than the per-sample bound of Fig. 10 —
    closed-loop decoding happens once per decision, not once per sample).

    Args:
        soc: the anchor design.
        profiles: the decoder's per-layer MAC profiles (hashable, so the
            schedule search is memoized across calls).
        n_channels: NI channel count.
        window_samples: input window per decision.
        stimulation: stimulation parameters (defaults when None).
        tech: MAC technology node.
        deadline_s: the loop's real-time bound.
    """
    if n_channels <= 0 or window_samples <= 0:
        raise ValueError("channel count and window must be positive")
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    stimulation = stimulation or StimulationConfig()
    acquisition = window_samples / soc.sampling_hz
    stim_delay = 1.0 / stimulation.pulse_rate_hz
    compute_budget = deadline_s - acquisition - stim_delay
    if compute_budget <= 0:
        schedule = None
        decode = math.inf
        comp_power = math.inf
    else:
        schedule = cached_best_schedule(profiles, compute_budget, tech)
        decode = schedule.runtime_s if schedule else math.inf
        comp_power = schedule.power_w(tech) if schedule else math.inf

    area = soc.sensing_area_m2(n_channels) + soc.non_sensing_area_m2
    return ClosedLoopPoint(
        soc_name=soc.name,
        n_channels=n_channels,
        acquisition_s=acquisition,
        decode_s=decode,
        stimulation_s=stim_delay,
        sensing_power_w=soc.sensing_power_w(n_channels),
        comp_power_w=comp_power,
        stim_power_w=stimulation.power_w,
        budget_w=area * SAFE_POWER_DENSITY,
        schedule=schedule,
        deadline_s=deadline_s,
    )

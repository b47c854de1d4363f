"""Event-driven (spike-only) streaming — the hardware-efficient middle way.

Section 7 notes that raw-rate streaming becomes viable "if we can ...
reduce the data rate using hardware-efficient methods to detect patterns
in neural activity" (Neuralink-style on-chip spike detection, NOEMA-style
template matching).  This module models that third dataflow: the implant
runs threshold detection per channel and transmits one event word per
spike instead of every sample.

    T_event(n) = n * r_spike * (bits_id + bits_time + bits_shape)

Event streaming wins while the population is sparse; at high firing rates
or large event payloads it collapses back to worse-than-raw.  The
crossover is exactly the kind of design guidance MINDFUL exists for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.accel.tech import TECH_45NM, TechnologyNode
from repro.core.frontier import grid_frontier
from repro.core.scaling import ScaledSoC
from repro.units import SAFE_POWER_DENSITY


@dataclass(frozen=True)
class EventStreamConfig:
    """Event-word and detector configuration.

    Attributes:
        spike_rate_hz: mean firing rate per channel.
        channel_id_bits: bits to address the source channel.
        timestamp_bits: bits of within-window timestamp per event.
        shape_bits: optional waveform-feature payload per event.
        detector_ops_per_sample: ALU work per sample for threshold
            detection (compare + state update).
    """

    spike_rate_hz: float = 10.0
    channel_id_bits: int = 16
    timestamp_bits: int = 10
    shape_bits: int = 0
    detector_ops_per_sample: float = 2.0

    def __post_init__(self) -> None:
        if self.spike_rate_hz < 0:
            raise ValueError("spike rate must be non-negative")
        if min(self.channel_id_bits, self.timestamp_bits) < 1:
            raise ValueError("id and timestamp fields need >= 1 bit")
        if self.shape_bits < 0 or self.detector_ops_per_sample < 0:
            raise ValueError("payload and detector cost must be >= 0")

    @property
    def bits_per_event(self) -> int:
        """Total event word size."""
        return self.channel_id_bits + self.timestamp_bits + self.shape_bits


@dataclass(frozen=True)
class EventStreamPoint:
    """One (SoC, n) evaluation of the event-driven dataflow.

    Attributes:
        soc_name: design name.
        n_channels: NI channel count.
        event_throughput_bps: event-word data rate.
        raw_throughput_bps: Eq. 6 raw rate for comparison.
        sensing_power_w / detector_power_w / comm_power_w: breakdown.
        budget_w: Eq. 3 budget (non-sensing area frozen, as in 4.2).
    """

    soc_name: str
    n_channels: int
    event_throughput_bps: float
    raw_throughput_bps: float
    sensing_power_w: float
    detector_power_w: float
    comm_power_w: float
    budget_w: float

    @property
    def data_reduction(self) -> float:
        """Raw over event rate (> 1 means events are cheaper)."""
        if self.event_throughput_bps == 0:
            return math.inf
        return self.raw_throughput_bps / self.event_throughput_bps

    @property
    def total_power_w(self) -> float:
        """Implant power under the event dataflow."""
        return (self.sensing_power_w + self.detector_power_w
                + self.comm_power_w)

    @property
    def power_ratio(self) -> float:
        """P_soc / P_budget."""
        return self.total_power_w / self.budget_w

    @property
    def fits(self) -> bool:
        """True while the design is within the safety budget."""
        return self.power_ratio <= 1.0


def evaluate_event_stream(soc: ScaledSoC, n_channels: int,
                          config: EventStreamConfig | None = None,
                          tech: TechnologyNode = TECH_45NM,
                          ) -> EventStreamPoint:
    """Project an event-driven design to ``n_channels``."""
    if n_channels <= 0:
        raise ValueError("channel count must be positive")
    config = config or EventStreamConfig()
    event_rate = (n_channels * config.spike_rate_hz
                  * config.bits_per_event)
    raw_rate = soc.sensing_throughput_bps(n_channels)
    comm_power = event_rate * soc.implied_energy_per_bit_j
    detector_power = (config.detector_ops_per_sample * soc.sampling_hz
                      * n_channels * tech.energy_per_mac_j)
    area = soc.sensing_area_m2(n_channels) + soc.non_sensing_area_m2
    return EventStreamPoint(
        soc_name=soc.name,
        n_channels=n_channels,
        event_throughput_bps=event_rate,
        raw_throughput_bps=raw_rate,
        sensing_power_w=soc.sensing_power_w(n_channels),
        detector_power_w=detector_power,
        comm_power_w=comm_power,
        budget_w=area * SAFE_POWER_DENSITY,
    )


def power_ratio_curve(soc: ScaledSoC,
                      channel_counts: np.ndarray,
                      config: EventStreamConfig | None = None,
                      tech: TechnologyNode = TECH_45NM) -> np.ndarray:
    """Vectorized P_soc/P_budget of the event dataflow over a channel grid.

    Numerically identical, point for point, to
    ``evaluate_event_stream(soc, n, config, tech).power_ratio``.
    """
    config = config or EventStreamConfig()
    n = np.asarray(channel_counts, dtype=np.float64)
    if n.size and float(n.min()) <= 0:
        raise ValueError("channel count must be positive")
    event_rate = n * config.spike_rate_hz * config.bits_per_event
    comm_power = event_rate * soc.implied_energy_per_bit_j
    detector_power = (config.detector_ops_per_sample * soc.sampling_hz
                      * n * tech.energy_per_mac_j)
    sensing_power = soc.sensing_power_anchor_w * n / soc.n_channels
    area = (soc.sensing_area_anchor_m2 * n / soc.n_channels
            + soc.non_sensing_area_m2)
    budget = area * SAFE_POWER_DENSITY
    return (sensing_power + detector_power + comm_power) / budget


def max_channels_event_stream(soc: ScaledSoC,
                              config: EventStreamConfig | None = None,
                              tech: TechnologyNode = TECH_45NM,
                              n_limit: int = 1 << 20) -> int:
    """Largest n the event dataflow sustains within the budget.

    All terms are linear in n, so feasibility is a prefix property; the
    exact integer frontier is located by vectorized grid narrowing over
    :func:`power_ratio_curve`.
    """
    config = config or EventStreamConfig()
    return grid_frontier(
        lambda n: power_ratio_curve(soc, n, config, tech), n_limit)

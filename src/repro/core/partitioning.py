"""DNN partitioning between implant and wearable (Section 6.1, Fig. 11).

Layer reduction places only the first layers of the DNN on the implant and
streams the intermediate activations to the wearable.  The paper's rule:
partition at the *earliest* layer whose required transmission rate does not
exceed that of a 1024-channel communication-centric design — i.e. whose
output is at most 1024 values per sampling period (the d and f factors are
shared, so they cancel).

Applied literally below ~512 channels that rule splits after the very
first layer and *increases* implant power (transmitting 2n activations
costs more than the saved tail compute), so the evaluator here considers
every admissible split — including "no split" — and keeps the one with the
lowest implant power.  For the scaling regime the paper studies
(n >= 1024) the two rules coincide; the earliest-layer rule remains
available as ``evaluate_partitioned(..., rule="earliest")``.

When no intermediate layer fits the transmission budget (the DN-CNN case —
every feature map is wider than 1024 values), partitioning degenerates to
the full on-implant design and brings no benefit, matching Fig. 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.accel.schedule import Schedule, cached_best_schedule
from repro.accel.tech import TECH_45NM, TechnologyNode
from repro.core.comp_centric import (
    Workload,
    _workload_profile,
    max_feasible_channels,
)
from repro.core.scaling import ScaledSoC
from repro.dnn.macs import LayerMacs
from repro.dnn.network import NetworkProfile
from repro.units import SAFE_POWER_DENSITY


#: Transmission cap of a split, in values per sampling period: the rate
#: of a 1024-channel communication-centric design.
MAX_SPLIT_VALUES = 1024

#: (split, head MAC profiles, transmitted values) of one on-implant
#: candidate; split is the 1-based compute layer, None for "no split".
Candidate = tuple[int | None, tuple[LayerMacs, ...], int]


def admissible_splits(profile: NetworkProfile,
                      max_values: int = MAX_SPLIT_VALUES) -> list[int]:
    """All 1-based compute-layer indices whose output fits the budget,
    excluding the final layer (which is the unpartitioned design)."""
    return [split for split, size in enumerate(profile.sizes[:-1], start=1)
            if size <= max_values]


def split_candidates(profile: NetworkProfile,
                     max_values: int = MAX_SPLIT_VALUES,
                     ) -> tuple[Candidate, ...]:
    """Every on-implant candidate of a network: "no split" first, then
    each admissible split in layer order.  A head's MAC profiles are the
    first ``split`` compute-layer profiles."""
    candidates: list[Candidate] = [
        (None, profile.profiles, profile.output_values)]
    candidates += [(split, profile.profiles[:split], profile.sizes[split - 1])
                   for split in admissible_splits(profile, max_values)]
    return tuple(candidates)


@dataclass(frozen=True)
class PartitionedPoint:
    """One (SoC, workload, n) evaluation of a partitioned design.

    Attributes:
        soc_name: design name.
        workload: the DNN workload.
        n_channels: NI channel count.
        split_layer: 1-based compute layer kept on the implant (None means
            the full network runs on-implant — no split helped).
        transmitted_values: activations streamed per sampling period.
        sensing_power_w / comp_power_w / comm_power_w: power breakdown.
        budget_w: Eq. 3 budget.
        schedule: the on-implant MAC schedule (None when infeasible).
    """

    soc_name: str
    workload: Workload
    n_channels: int
    split_layer: int | None
    transmitted_values: int
    sensing_power_w: float
    comp_power_w: float
    comm_power_w: float
    budget_w: float
    schedule: Schedule | None

    @property
    def total_power_w(self) -> float:
        """On-implant P_soc(n) for the partitioned design."""
        return self.sensing_power_w + self.comp_power_w + self.comm_power_w

    @property
    def power_ratio(self) -> float:
        """P_soc / P_budget."""
        return self.total_power_w / self.budget_w

    @property
    def fits(self) -> bool:
        """True when the partitioned design is within budget."""
        return self.power_ratio <= 1.0


def _implant_cost(soc: ScaledSoC, profiles: tuple[LayerMacs, ...],
                  transmitted: int, tech: TechnologyNode,
                  ) -> tuple[float, float, Schedule | None]:
    """(comp_power, comm_power, schedule) for an on-implant sub-network."""
    deadline = 1.0 / soc.sampling_hz
    schedule = cached_best_schedule(profiles, deadline, tech)
    comp = schedule.power_w(tech) if schedule else math.inf
    comm = (transmitted * soc.sample_bits * soc.sampling_hz
            * soc.implied_energy_per_bit_j)
    return comp, comm, schedule


def evaluate_partitioned(soc: ScaledSoC,
                         workload: Workload,
                         n_channels: int,
                         tech: TechnologyNode = TECH_45NM,
                         max_values: int = MAX_SPLIT_VALUES,
                         rule: str = "optimal") -> PartitionedPoint:
    """Project a scaled SoC running the best on-implant head of a workload.

    Args:
        soc: 1024-channel anchor design.
        workload: MLP or DN-CNN.
        n_channels: target channel count.
        tech: MAC technology node.
        max_values: transmission cap in values per sampling period.
        rule: "optimal" picks the admissible split (or no split) with the
            lowest implant power; "earliest" applies the paper's rule
            verbatim.

    Raises:
        ValueError: for unknown rules or non-positive channel counts.
    """
    if n_channels <= 0:
        raise ValueError("channel count must be positive")
    if rule not in ("optimal", "earliest"):
        raise ValueError(f"unknown partitioning rule {rule!r}")
    profile = _workload_profile(workload, n_channels)
    all_candidates = split_candidates(profile, max_values)

    if rule == "earliest":
        # The paper's rule: the earliest admissible split, or no split
        # when nothing but the final layer fits the transmission budget.
        splits = [c for c in all_candidates if c[0] is not None]
        candidates = splits[:1] if splits else [all_candidates[0]]
    else:
        candidates = list(all_candidates)

    best: tuple[float, int | None, int, float, float,
                Schedule | None] | None = None
    for split, profiles, transmitted in candidates:
        comp, comm, schedule = _implant_cost(soc, profiles, transmitted,
                                             tech)
        total = comp + comm
        if best is None or total < best[0]:
            best = (total, split, transmitted, comp, comm, schedule)

    assert best is not None  # candidates is never empty
    _, split, transmitted, comp, comm, schedule = best
    area = soc.sensing_area_m2(n_channels) + soc.non_sensing_area_m2
    return PartitionedPoint(
        soc_name=soc.name,
        workload=workload,
        n_channels=n_channels,
        split_layer=split,
        transmitted_values=transmitted,
        sensing_power_w=soc.sensing_power_w(n_channels),
        comp_power_w=comp,
        comm_power_w=comm,
        budget_w=area * SAFE_POWER_DENSITY,
        schedule=schedule,
    )


def power_ratio_curve(soc: ScaledSoC,
                      workload: Workload,
                      channel_counts: np.ndarray,
                      tech: TechnologyNode = TECH_45NM,
                      rule: str = "optimal") -> np.ndarray:
    """P_soc/P_budget of the partitioned design over a channel grid.

    Network profiles and MAC schedules are memoized, so sweeping the same
    grid across several SoCs reuses the profiles and schedule searches
    instead of repeating them per point.
    """
    return np.array([
        evaluate_partitioned(soc, workload, int(n), tech,
                             rule=rule).power_ratio
        for n in np.asarray(channel_counts).tolist()])


def max_feasible_channels_partitioned(soc: ScaledSoC,
                                      workload: Workload,
                                      tech: TechnologyNode = TECH_45NM,
                                      step: int = 64,
                                      n_limit: int = 16384,
                                      rule: str = "optimal",
                                      chunk: int = 16) -> int:
    """Largest n at which the partitioned workload fits the budget.

    The grid is evaluated in ``chunk``-sized batches through
    :func:`power_ratio_curve`, stopping at the first failure after a
    feasible point exactly like the historical scalar scan.
    """
    grid = np.arange(step, n_limit + 1, step, dtype=np.int64)
    best = 0
    for start in range(0, grid.size, chunk):
        block = grid[start:start + chunk]
        fits = power_ratio_curve(soc, workload, block, tech,
                                 rule=rule) <= 1.0
        for n, ok in zip(block.tolist(), fits.tolist()):
            if ok:
                best = n
            elif best:
                return best
    return best


@dataclass(frozen=True)
class PartitioningGain:
    """Fig. 11 bar: channel-count gain from layer reduction.

    Attributes:
        soc_name: design name.
        workload: the DNN workload.
        max_channels_full: feasibility limit with the whole DNN on-implant.
        max_channels_partitioned: limit with layer reduction.
    """

    soc_name: str
    workload: Workload
    max_channels_full: int
    max_channels_partitioned: int

    @property
    def gain_ratio(self) -> float:
        """Partitioned / full limit (1.0 = no benefit); 0 when the full
        design never fits."""
        if self.max_channels_full == 0:
            return 0.0
        return self.max_channels_partitioned / self.max_channels_full


def partitioning_gain(soc: ScaledSoC,
                      workload: Workload,
                      tech: TechnologyNode = TECH_45NM,
                      step: int = 64) -> PartitioningGain:
    """Compute the Fig. 11 gain for one SoC and workload."""
    full = max_feasible_channels(soc, workload, tech, step=step)
    part = max_feasible_channels_partitioned(soc, workload, tech, step=step)
    return PartitioningGain(soc_name=soc.name, workload=workload,
                            max_channels_full=full,
                            max_channels_partitioned=part)

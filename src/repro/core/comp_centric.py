"""Computation-centric architectures with on-implant DNNs (Fig. 10, Fig. 11).

Paper Section 5.3: instead of streaming raw data, the implant runs the DNN
and transmits only its output (Eq. 8), paying the Eq. 13 compute power
lower bound:

    P_soc(n) = P_sensing(n) + P_comp(n) + T_comm(n_out) * Eb

where P_comp comes from the best of the pipelined / non-pipelined MAC
schedules under the real-time deadline t = 1/f, and the non-sensing area
is reused for computation (as in the QAM analysis, it must not grow).

Section 6.1 (Fig. 11) places only a head of the DNN on the implant and
streams the intermediate activations to the wearable.  The paper's rule:
partition at the *earliest* layer whose output is at most 1024 values per
sampling period (the rate of a 1024-channel communication-centric design;
the d and f factors are shared, so they cancel).  Applied literally below
~512 channels that rule splits after the very first layer and *increases*
implant power (transmitting 2n activations costs more than the saved tail
compute), so the ``"optimal"`` rule considers every admissible split —
including "no split" — and keeps the one with the lowest implant power.
For the scaling regime the paper studies (n >= 1024) the two rules
coincide.  When no intermediate layer fits the transmission cap (the
DN-CNN case — every feature map is wider than 1024 values), partitioning
degenerates to the full on-implant design and brings no benefit.

Every on-implant head of a network is priced once, in
:func:`implant_options`; Fig. 10, Fig. 11, ``explore`` and the Fig. 12
ladder all read that table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.accel.schedule import head_powers_w
from repro.accel.tech import TECH_45NM, TechnologyNode
from repro.core.frontier import first_run_frontier
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

#: Transmission cap of a split, in values per sampling period: the rate
#: of a 1024-channel communication-centric design.
MAX_SPLIT_VALUES = 1024

#: How :func:`evaluate_comp_centric` picks the on-implant head: "none"
#: runs the whole network (Fig. 10), "optimal" the lowest-power
#: candidate and "earliest" the paper's rule verbatim (Fig. 11).
RULES = ("none", "optimal", "earliest")

#: (split, compute power, transmitted values) of one on-implant
#: candidate; split is the 1-based compute layer, None for "no split",
#: and compute power is ``inf`` when no schedule meets the deadline.
Option = tuple[int | None, float, int]


def network_profile(workload: Workload, n_channels: int) -> NetworkProfile:
    """The profile of a workload's network at a channel count.

    Not memoized: a ladder bisection probes many channel counts and the
    profile tuples would pile up.  Grid points go through
    :func:`workload_profile`.
    """
    return _PROFILES[workload](n_channels)


@lru_cache(maxsize=4096)
def workload_profile(workload: Workload, n_channels: int) -> NetworkProfile:
    """The profile of a workload at a channel count, memoized.

    The profiles are deterministic in (workload, n), so the sweeps share
    one entry per grid point across every SoC on the grid.
    """
    return network_profile(workload, n_channels)


def admissible_splits(profile: NetworkProfile) -> list[int]:
    """All 1-based compute-layer indices whose output fits the
    transmission cap, excluding the final layer (which is the
    unpartitioned design)."""
    return [split for split, size in enumerate(profile.sizes[:-1], start=1)
            if size <= MAX_SPLIT_VALUES]


@lru_cache(maxsize=4096)
def implant_options(workload: Workload, n_channels: int,
                    deadline_s: float, tech: TechnologyNode,
                    ) -> tuple[Option, ...]:
    """Every on-implant candidate of the n-channel network: "no split"
    first, then each admissible split in layer order.

    A head's MAC profiles are the first ``split`` compute-layer profiles,
    so every head is priced from one Eq. 14 pass over the network's
    layers (:func:`head_powers_w`).  Only scalars are kept, so the table
    stays small across the many n a ladder bisection probes; the
    SoC-dependent communication term is :func:`output_stream_power_w`.
    """
    profile = network_profile(workload, n_channels)
    splits = admissible_splits(profile)
    powers = head_powers_w(profile.profiles,
                           [len(profile.profiles)] + splits,
                           deadline_s, tech)
    # Built from a list: the table keeps 4096 of these, and a tuple
    # grown from a zip iterator cost 0.7 MB more RSS over 6000 queries.
    options = [(None, powers[0], profile.output_values)]
    options += [(split, power, profile.sizes[split - 1])
                for split, power in zip(splits, powers[1:])]
    return tuple(options)


def output_stream_power_w(soc: ScaledSoC, values: int) -> float:
    """Eq. 8/9 power of streaming ``values`` per sampling period."""
    return (values * soc.sample_bits * soc.sampling_hz
            * soc.implied_energy_per_bit_j)


@dataclass(frozen=True)
class CompCentricPoint:
    """One (SoC, workload, n) computation-centric evaluation.

    Attributes:
        soc_name: design name.
        workload: which DNN runs on the implant.
        n_channels: NI channel count (also the DNN's input channel count).
        split_layer: 1-based compute layer kept on the implant (None means
            the full network runs on-implant).
        transmitted_values: values streamed per sampling period.
        sensing_power_w: Eq. 5 sensing power.
        comp_power_w: Eq. 13 lower bound (``inf`` if no schedule meets the
            deadline).
        comm_power_w: Eq. 8/9 output-transmission power.
        budget_w: Eq. 3 budget over sensing area + frozen non-sensing area.
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
                          rule: str = "none") -> CompCentricPoint:
    """Project a scaled SoC running a DNN workload at ``n_channels``.

    Args:
        soc: the 1024-channel anchor design.
        workload: MLP or DN-CNN.
        n_channels: target channel count (the DNN input scales with it).
        tech: MAC technology node (45 nm in Fig. 10; 12 nm for the
            technology-scaling optimization).
        rule: which on-implant head runs (see :data:`RULES`).

    Raises:
        ValueError: for unknown rules or non-positive channel counts.
    """
    if n_channels <= 0:
        raise ValueError("channel count must be positive")
    if rule not in RULES:
        raise ValueError(f"unknown partitioning rule {rule!r}")
    options = implant_options(workload, n_channels, 1.0 / soc.sampling_hz,
                              tech)
    if rule == "optimal":
        split, comp, transmitted = min(
            options, key=lambda option: (
                option[1] + output_stream_power_w(soc, option[2])))
    elif rule == "earliest":
        # The earliest admissible split, or no split when nothing but
        # the final layer fits the transmission cap.
        split, comp, transmitted = options[1 if len(options) > 1 else 0]
    else:
        split, comp, transmitted = options[0]

    area = soc.sensing_area_m2(n_channels) + soc.non_sensing_area_m2
    return CompCentricPoint(
        soc_name=soc.name,
        workload=workload,
        n_channels=n_channels,
        split_layer=split,
        transmitted_values=transmitted,
        sensing_power_w=soc.sensing_power_w(n_channels),
        comp_power_w=comp,
        comm_power_w=output_stream_power_w(soc, transmitted),
        budget_w=area * SAFE_POWER_DENSITY,
    )


def max_feasible_channels(soc: ScaledSoC,
                          workload: Workload,
                          tech: TechnologyNode = TECH_45NM,
                          rule: str = "none",
                          step: int = 64,
                          n_limit: int = 16384) -> int:
    """Largest n at which the workload still fits the power budget.

    Scans upward in ``step`` increments from ``step`` and stops at the
    first failure after a feasible point (the feasibility frontier is
    effectively monotone — compute power grows quadratically while the
    budget grows linearly — but depth changes make it only piecewise
    smooth, so scanning beats bisection for robustness).

    Returns:
        The maximum feasible channel count, or 0 when the workload never
        fits this SoC.
    """
    grid = range(step, n_limit + 1, step)
    return first_run_frontier(
        grid, (evaluate_comp_centric(soc, workload, n, tech, rule).fits
               for n in grid))


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
                      tech: TechnologyNode = TECH_45NM) -> PartitioningGain:
    """Compute the Fig. 11 gain for one SoC and workload."""
    return PartitioningGain(
        soc_name=soc.name, workload=workload,
        max_channels_full=max_feasible_channels(soc, workload, tech),
        max_channels_partitioned=max_feasible_channels(
            soc, workload, tech, rule="optimal"))

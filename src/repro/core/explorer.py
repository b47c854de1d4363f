"""Design-space explorer: every architectural strategy, one verdict table.

Composes the framework's strategy evaluators — raw OOK streaming (naive /
high-margin), advanced modulation, lossless-compressed streaming,
event-driven spike streaming, and on-implant DNNs (full and partitioned) —
into a single per-SoC exploration: the maximum safe channel count each
strategy reaches and which strategy wins at a target channel count.

This is the "tailoring BCI systems to application needs" workflow the
paper's conclusions call for, packaged as an API (and surfaced by
``python -m repro explore``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.accel.tech import TECH_45NM, TechnologyNode
from repro.core.closed_loop import (
    evaluate_closed_loop,
    max_channels_closed_loop,
)
from repro.core.comm_centric import (
    DesignHypothesis,
    budget_crossing_channels,
    evaluate_comm_centric,
)
from repro.core.comp_centric import (
    Workload,
    evaluate_comp_centric,
    max_feasible_channels,
    workload_profile,
)
from repro.core.event_stream import (
    EventStreamConfig,
    evaluate_event_stream,
    max_channels_event_stream,
)
from repro.core.frontier import grid_frontier
from repro.core.qam_design import (
    evaluate_qam_design,
    max_channels_at_efficiency,
)
from repro.core.scaling import ScaledSoC
from repro.units import SAFE_POWER_DENSITY


@dataclass(frozen=True)
class StrategyOutcome:
    """One strategy's verdict for a SoC.

    Attributes:
        strategy: strategy label.
        max_channels: largest safe channel count (None when unbounded
            within the explored limit).  The two raw-OOK strategies
            report :func:`~repro.core.comm_centric.budget_crossing_channels`
            instead: the smallest channel count *over* budget, one above
            the largest safe one (the anchor count itself when the
            anchor is already over budget).
        power_ratio_at_target: P_soc/P_budget at the exploration target.
    """

    strategy: str
    max_channels: int | None
    power_ratio_at_target: float

    @property
    def feasible_at_target(self) -> bool:
        """True when the target channel count stays within budget."""
        return self.power_ratio_at_target <= 1.0


@dataclass(frozen=True)
class ExplorationReport:
    """Full strategy comparison for one SoC.

    Attributes:
        soc_name: design name.
        target_channels: the channel count strategies were compared at.
        outcomes: per-strategy verdicts, in presentation order.
    """

    soc_name: str
    target_channels: int
    outcomes: tuple[StrategyOutcome, ...]

    def best_strategy(self) -> StrategyOutcome | None:
        """Lowest power ratio among strategies feasible at the target."""
        feasible = [o for o in self.outcomes if o.feasible_at_target]
        if not feasible:
            return None
        return min(feasible, key=lambda o: o.power_ratio_at_target)

    def frontier(self) -> dict[str, int | None]:
        """Strategy -> ``max_channels`` (see :class:`StrategyOutcome`)."""
        return {o.strategy: o.max_channels for o in self.outcomes}


def _compressed_stream_ratio(soc: ScaledSoC, n_channels,
                             compression_ratio: float,
                             codec_power_w_per_channel: float):
    """Power ratio of raw streaming with a lossless codec in front.

    Accepts a scalar channel count or an ndarray grid; the array form is
    numerically identical to the scalar one, point for point.
    """
    n = np.asarray(n_channels, dtype=np.float64)
    throughput = float(soc.sample_bits) * n * soc.sampling_hz
    comm = throughput / compression_ratio * soc.implied_energy_per_bit_j
    codec = codec_power_w_per_channel * n
    sensing_power = soc.sensing_power_anchor_w * n / soc.n_channels
    area = (soc.sensing_area_anchor_m2 * n / soc.n_channels
            + soc.non_sensing_area_m2)
    budget = area * SAFE_POWER_DENSITY
    ratio = (sensing_power + comm + codec) / budget
    return ratio if ratio.ndim else float(ratio)


def _max_channels_compressed(soc: ScaledSoC, compression_ratio: float,
                             codec_power_w_per_channel: float,
                             n_limit: int = 1 << 18) -> int:
    """Exact frontier of the compressed-streaming strategy.

    All terms are linear in n, so feasibility is a prefix property and
    the frontier is located by vectorized grid narrowing; the curve is
    never evaluated beyond ``n_limit``.
    """
    return grid_frontier(
        lambda n: _compressed_stream_ratio(soc, n, compression_ratio,
                                           codec_power_w_per_channel),
        n_limit)


@functools.lru_cache(maxsize=64)
def _strategy_limits(soc: ScaledSoC,
                     qam_efficiency: float,
                     compression_ratio: float,
                     codec_power_w_per_channel: float,
                     event_config: EventStreamConfig,
                     tech: TechnologyNode,
                     ) -> tuple[tuple[str, int | None], ...]:
    """Every strategy's label and ``max_channels``, in presentation order.

    These limits are properties of the design and the strategy
    parameters, not of the exploration target, so one entry serves every
    target :func:`explore` is asked about for the same design.  The key
    holds the whole ``ScaledSoC`` (field-based equality and hash); the
    caller normalises ``event_config=None`` first.
    """
    event_limit = 1 << 20
    event_max = max_channels_event_stream(soc, event_config, tech,
                                          n_limit=event_limit)
    limits = [
        ("raw OOK (naive)",
         budget_crossing_channels(soc, DesignHypothesis.NAIVE)),
        ("raw OOK (high margin)",
         budget_crossing_channels(soc, DesignHypothesis.HIGH_MARGIN)),
        (f"QAM @ {qam_efficiency:.0%}",
         max_channels_at_efficiency(soc, qam_efficiency)),
        (f"compressed stream (x{compression_ratio:g})",
         _max_channels_compressed(soc, compression_ratio,
                                  codec_power_w_per_channel)),
        ("event stream (spikes only)",
         None if event_max >= event_limit - 256 else event_max),
    ]
    for workload in Workload:
        limits.append((f"on-implant {workload.value}",
                       max_feasible_channels(soc, workload, tech)))
        limits.append((f"partitioned {workload.value}",
                       max_feasible_channels(soc, workload, tech,
                                             rule="optimal")))
    limits.append(("closed loop (mlp, no telemetry)",
                   max_channels_closed_loop(soc, Workload.MLP, tech)))
    return tuple(limits)


def explore(soc: ScaledSoC,
            target_channels: int = 2048,
            qam_efficiency: float = 0.20,
            compression_ratio: float = 2.0,
            codec_power_w_per_channel: float = 2e-7,
            event_config: EventStreamConfig | None = None,
            tech: TechnologyNode = TECH_45NM) -> ExplorationReport:
    """Compare every architectural strategy for one scaled SoC.

    Args:
        soc: the 1024-channel anchor design.
        target_channels: channel count at which strategies are compared.
        qam_efficiency: achievable transmitter efficiency for the
            advanced-modulation strategy.
        compression_ratio: lossless codec ratio (measure one with
            :class:`repro.compress.pipeline.NeuralCompressor`).
        codec_power_w_per_channel: codec cost per channel.
        event_config: event-stream parameters.
        tech: MAC technology for compute strategies.

    Every outcome's ``max_channels`` is the strategy's largest feasible
    channel count, except the two raw-OOK rows, which carry the
    budget-crossing count (the smallest infeasible one; see
    :class:`StrategyOutcome`).  Those limits do not depend on the target:
    they come from :func:`_strategy_limits`, memoized per design and
    strategy parameters, so only the at-target power ratios are
    evaluated on each call.
    """
    if target_channels < soc.n_channels:
        raise ValueError("target must be at least the 1024-ch standard")
    event_config = event_config or EventStreamConfig()
    limits = _strategy_limits(soc, qam_efficiency, compression_ratio,
                              codec_power_w_per_channel, event_config, tech)

    qam = evaluate_qam_design(soc, target_channels)
    ratios = [
        evaluate_comm_centric(soc, target_channels,
                              DesignHypothesis.NAIVE).power_ratio,
        evaluate_comm_centric(soc, target_channels,
                              DesignHypothesis.HIGH_MARGIN).power_ratio,
        (qam.min_efficiency / qam_efficiency
         if math.isfinite(qam.min_efficiency) else math.inf),
        _compressed_stream_ratio(soc, target_channels, compression_ratio,
                                 codec_power_w_per_channel),
        evaluate_event_stream(soc, target_channels, event_config,
                              tech).power_ratio,
    ]
    for workload in Workload:
        ratios.append(evaluate_comp_centric(soc, workload, target_channels,
                                            tech).power_ratio)
        ratios.append(evaluate_comp_centric(soc, workload, target_channels,
                                            tech, rule="optimal").power_ratio)

    # Closed loop: decode once per decision, stimulate, no telemetry —
    # a different application class with a far looser compute deadline.
    loop = evaluate_closed_loop(
        soc, workload_profile(Workload.MLP, target_channels).profiles,
        target_channels, tech=tech)
    ratios.append(loop.power_ratio if loop.meets_deadline else math.inf)

    return ExplorationReport(
        soc_name=soc.name,
        target_channels=target_channels,
        outcomes=tuple(
            StrategyOutcome(strategy, max_channels, ratio)
            for (strategy, max_channels), ratio
            in zip(limits, ratios, strict=True)))

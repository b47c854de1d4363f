"""Sensitivity analysis over the framework's estimated parameters.

DESIGN.md substitution 2 concedes that per-SoC sensing/communication
splits are engineering estimates; this module quantifies how much they
matter.  Each analysis perturbs one parameter across a plausible range,
re-derives a headline metric, and reports the swing — a tornado-style
robustness statement for EXPERIMENTS.md's "shape holds" claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.comm_centric import (
    DesignHypothesis,
    budget_crossing_channels,
)
from repro.core.comp_centric import Workload, max_feasible_channels
from repro.core.qam_design import max_channels_at_efficiency
from repro.core.scaling import ScaledSoC, scale_to_standard
from repro.core.socs import SoCRecord


@dataclass(frozen=True)
class SensitivityResult:
    """Effect of sweeping one parameter on one metric.

    Attributes:
        parameter: swept parameter name.
        metric: metric name.
        values: swept parameter values.
        outcomes: metric value per sweep point.
    """

    parameter: str
    metric: str
    values: tuple[float, ...]
    outcomes: tuple[float, ...]

    @property
    def swing(self) -> float:
        """Max minus min of the metric across the sweep."""
        return max(self.outcomes) - min(self.outcomes)

    @property
    def relative_swing(self) -> float:
        """Swing normalized by the mid-sweep outcome."""
        mid = self.outcomes[len(self.outcomes) // 2]
        if mid == 0:
            return float("inf") if self.swing else 0.0
        return self.swing / abs(mid)


def _metric_fn(metric: str) -> Callable[[ScaledSoC], float]:
    if metric == "mlp_max_channels":
        return lambda soc: float(max_feasible_channels(soc, Workload.MLP))
    if metric == "high_margin_crossing":
        def crossing(soc: ScaledSoC) -> float:
            result = budget_crossing_channels(
                soc, DesignHypothesis.HIGH_MARGIN)
            return float(result) if result is not None else float("inf")
        return crossing
    if metric == "qam_channels_at_20pct":
        return lambda soc: float(max_channels_at_efficiency(soc, 0.20))
    raise ValueError(
        f"unknown metric {metric!r}; expected mlp_max_channels, "
        "high_margin_crossing, or qam_channels_at_20pct")


def sweep_record_parameter(record: SoCRecord,
                           parameter: str,
                           values: tuple[float, ...],
                           metric: str) -> SensitivityResult:
    """Sweep one SoCRecord field and re-derive a metric.

    Args:
        record: the base Table 1 design.
        parameter: a SoCRecord field name (e.g. "comm_power_fraction",
            "sensing_area_fraction", "sample_bits").
        values: parameter values to try.
        metric: one of the supported metric names.

    Raises:
        ValueError: for unknown fields, empty sweeps, or unknown metrics.
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    if not hasattr(record, parameter):
        raise ValueError(f"SoCRecord has no field {parameter!r}")
    fn = _metric_fn(metric)
    outcomes = []
    for value in values:
        cast = int(value) if parameter == "sample_bits" else value
        variant = record.with_updates(**{parameter: cast})
        outcomes.append(fn(scale_to_standard(variant)))
    return SensitivityResult(parameter=parameter, metric=metric,
                             values=tuple(values),
                             outcomes=tuple(outcomes))


def tornado(record: SoCRecord,
            metric: str = "mlp_max_channels") -> list[SensitivityResult]:
    """Standard tornado set: both split fractions and the bit width."""
    base_comm = record.comm_power_fraction
    base_area = record.sensing_area_fraction
    sweeps = [
        ("comm_power_fraction",
         (max(0.05, base_comm - 0.1), base_comm,
          min(0.9, base_comm + 0.1))),
        ("sensing_area_fraction",
         (max(0.1, base_area - 0.1), base_area,
          min(0.9, base_area + 0.1))),
        ("sample_bits", (8.0, 10.0, 12.0)),
    ]
    return [sweep_record_parameter(record, name, values, metric)
            for name, values in sweeps]

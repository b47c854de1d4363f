"""Combined optimization ladder (Section 6.2, Fig. 12).

Four optimizations are applied cumulatively to the MLP workload:

* **ChDr — channel dropout**: spike-sorting-style redundancy filtering
  reduces the *active* channels feeding the DNN to n' <= n, shrinking the
  model (alpha is set from n'), while the NI still senses all n channels.
* **La — layer reduction**: the Section 6.1 partitioning; only the DNN
  head runs on-implant.
* **Tech — technology scaling**: the MAC is resynthesized at 12 nm
  (tMAC = 1 ns, PMAC = 0.026 mW); sensing and communication are analog and
  do not scale.
* **Dense — channel density**: sensing area per channel halves, improving
  resolution and flexibility but shrinking the area — and therefore the
  Eq. 3 power budget.

For each SoC and target n, the framework finds the largest feasible active
channel count n' and reports the feasible model size — parameters of the
n'-channel MLP relative to the unoptimized n-channel MLP (the Fig. 12
y-axis).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.tech import TECH_12NM, TECH_45NM, TechnologyNode
from repro.core.comp_centric import (
    Workload,
    implant_options,
    network_profile,
    output_stream_power_w,
    workload_profile,
)
from repro.core.scaling import ScaledSoC
from repro.units import SAFE_POWER_DENSITY


@dataclass(frozen=True)
class OptimizationConfig:
    """Which optimizations are active (cumulative ladder steps).

    Attributes:
        layer_reduction: apply Section 6.1 partitioning (La).
        tech: MAC technology node (45 nm baseline, 12 nm for +Tech).
        density_factor: sensing-area reduction factor (+Dense uses 2.0).
    """

    layer_reduction: bool = False
    tech: TechnologyNode = TECH_45NM
    density_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.density_factor < 1.0:
            raise ValueError("density factor must be >= 1")


#: The Fig. 12 ladder, in presentation order.
LADDER: tuple[tuple[str, OptimizationConfig], ...] = (
    ("ChDr", OptimizationConfig()),
    ("La+ChDr", OptimizationConfig(layer_reduction=True)),
    ("La+ChDr+Tech", OptimizationConfig(layer_reduction=True,
                                        tech=TECH_12NM)),
    ("La+ChDr+Tech+Dense", OptimizationConfig(layer_reduction=True,
                                              tech=TECH_12NM,
                                              density_factor=2.0)),
)


def densified_sensing_area_m2(soc: ScaledSoC, n_channels: int,
                              density_factor: float) -> float:
    """Sensing area under the +Dense optimization.

    Densification redesigns the array so that channels *added beyond the
    1024-channel anchor* occupy ``1/density_factor`` of the baseline
    per-channel area; the anchor design itself is an existing chip and
    keeps its geometry.  (Halving the whole array would shrink the Eq. 3
    budget below the sensing power itself for most designs — a stronger
    effect than the paper's Fig. 12 'Dense' step exhibits.)
    """
    anchor = soc.sensing_area_anchor_m2
    full = soc.sensing_area_m2(n_channels)
    if n_channels <= soc.n_channels:
        return full
    return anchor + (full - anchor) / density_factor


def _design_fits(soc: ScaledSoC, workload: Workload, n_channels: int,
                 active_channels: int, config: OptimizationConfig) -> bool:
    """Feasibility of sensing n channels while computing on n' of them.

    Reads the on-implant candidate table of the n'-channel network
    directly: this is the ladder's hot path, so no point is built.
    """
    options = implant_options(workload, active_channels,
                              1.0 / soc.sampling_hz, config.tech)
    if not config.layer_reduction:
        options = options[:1]
    non_sensing = min(power + output_stream_power_w(soc, transmitted)
                      for _, power, transmitted in options)

    sensing_area = densified_sensing_area_m2(soc, n_channels,
                                             config.density_factor)
    budget = (sensing_area + soc.non_sensing_area_m2) * SAFE_POWER_DENSITY
    total = soc.sensing_power_w(n_channels) + non_sensing
    return total <= budget


@dataclass(frozen=True)
class OptimizedDesign:
    """Result of one ladder step for one (SoC, n).

    Attributes:
        soc_name: design name.
        step_name: ladder label ("ChDr", "La+ChDr", ...).
        n_channels: sensed NI channels.
        active_channels: channels surviving dropout (n' <= n); 0 when even
            the smallest model is infeasible.
        model_size_fraction: parameters of the n'-channel model over the
            unoptimized n-channel model (Fig. 12 y-axis).
    """

    soc_name: str
    step_name: str
    n_channels: int
    active_channels: int
    model_size_fraction: float


def max_active_channels(soc: ScaledSoC, workload: Workload, n_channels: int,
                        config: OptimizationConfig,
                        min_active: int = 16) -> int:
    """Largest n' <= n for which the optimized design fits the budget.

    Feasibility is monotone in n' (compute grows with the model), so the
    maximum is found by bisection; returns 0 when even ``min_active``
    channels do not fit.
    """
    if n_channels < min_active:
        raise ValueError(f"n_channels must be at least {min_active}")
    if _design_fits(soc, workload, n_channels, n_channels, config):
        return n_channels
    if not _design_fits(soc, workload, n_channels, min_active, config):
        return 0
    lo, hi = min_active, n_channels  # fits at lo, fails at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _design_fits(soc, workload, n_channels, mid, config):
            lo = mid
        else:
            hi = mid
    return lo


def evaluate_ladder_step(soc: ScaledSoC, n_channels: int, step_name: str,
                         config: OptimizationConfig,
                         workload: Workload = Workload.MLP,
                         ) -> OptimizedDesign:
    """Run one Fig. 12 ladder step for one SoC and channel count."""
    active = max_active_channels(soc, workload, n_channels, config)
    if active == 0:
        fraction = 0.0
    else:
        # The target n is a grid point the sweeps share; the probed n'
        # stays out of the memo, like the probe itself.
        full = workload_profile(workload, n_channels).n_parameters
        reduced = network_profile(workload, active).n_parameters
        fraction = reduced / full
    return OptimizedDesign(soc_name=soc.name, step_name=step_name,
                           n_channels=n_channels, active_channels=active,
                           model_size_fraction=fraction)


def evaluate_ladder(soc: ScaledSoC, n_channels: int,
                    workload: Workload = Workload.MLP,
                    ) -> list[OptimizedDesign]:
    """All four Fig. 12 ladder steps for one SoC and channel count."""
    return [evaluate_ladder_step(soc, n_channels, name, config, workload)
            for name, config in LADDER]

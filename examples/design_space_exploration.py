"""Design-space exploration for a hypothetical next-generation implant.

Defines a new SoC (not in Table 1) from first principles — NEF-based
front-end power, grid geometry, link budget — registers it alongside the
published designs, and sweeps the three architectural strategies the paper
compares: raw OOK streaming, advanced modulation, and on-implant DNNs.

Run:  python examples/design_space_exploration.py
"""

from repro.core.comm_centric import (
    DesignHypothesis,
    budget_crossing_channels,
    evaluate_comm_centric,
)
from repro.core.comp_centric import (
    Workload,
    evaluate_comp_centric,
    max_feasible_channels,
)
from repro.core.qam_design import (
    evaluate_qam_design,
    max_channels_at_efficiency,
)
from repro.core.scaling import scale_to_standard
from repro.core.socs import NIType, SoCRecord
from repro.experiments.report import format_table
from repro.ni.afe import AnalogFrontEnd
from repro.ni.geometry import GridArray
from repro.units import mw_per_cm2, to_mw


def design_next_gen_soc() -> SoCRecord:
    """A 1024-channel concept implant built from substrate models."""
    sampling_hz = 10e3
    geometry = GridArray(rows=32, cols=32, pitch_m=250e-6,
                         overhead_area_m2=40e-6)
    afe = AnalogFrontEnd(nef=2.5, input_noise_vrms=4e-6,
                         bandwidth_hz=sampling_hz / 2)
    sensing_power = afe.total_power_w(geometry.n_channels)
    # Budget 30 % of total power for the transceiver at the anchor.
    total_power = sensing_power / 0.7
    density = total_power / geometry.total_area_m2
    print(f"concept SoC: {geometry.n_channels} channels, "
          f"{geometry.total_area_m2 * 1e6:.0f} mm^2, "
          f"{to_mw(total_power):.1f} mW "
          f"({density / mw_per_cm2(1):.1f} mW/cm^2)")
    return SoCRecord(
        number=99, name="NextGen", ni_type=NIType.ELECTRODES,
        n_channels=geometry.n_channels,
        area_m2=geometry.total_area_m2,
        power_density_w_m2=density,
        sampling_hz=sampling_hz, wireless=True, below_budget=True,
        sensing_area_fraction=geometry.volumetric_efficiency,
        comm_power_fraction=0.30)


def main() -> None:
    soc = scale_to_standard(design_next_gen_soc())

    rows = []
    for n in (1024, 2048, 4096, 8192):
        comm = evaluate_comm_centric(soc, n, DesignHypothesis.HIGH_MARGIN)
        qam = evaluate_qam_design(soc, n)
        comp = evaluate_comp_centric(soc, Workload.MLP, n)
        rows.append({
            "channels": n,
            "ook_power_ratio": comm.power_ratio,
            "qam_min_efficiency": qam.min_efficiency,
            "mlp_power_ratio": comp.power_ratio,
        })
    print()
    print(format_table(rows))

    print()
    print("strategy frontiers for the concept SoC:")
    ook_limit = budget_crossing_channels(soc, DesignHypothesis.HIGH_MARGIN)
    print(f"  raw OOK streaming feasible below   ~{ook_limit} channels")
    for eff in (0.15, 0.20, 1.00):
        limit = max_channels_at_efficiency(soc, eff)
        print(f"  QAM at {eff:>4.0%} efficiency reaches     ~{limit} channels")
    for workload in Workload:
        limit = max_feasible_channels(soc, workload)
        print(f"  on-implant {workload.value:6s} feasible below "
              f"~{limit} channels")


if __name__ == "__main__":
    main()

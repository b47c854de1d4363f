"""Quickstart: assess an implantable BCI SoC with the MINDFUL framework.

Loads the Table 1 database, scales a design to the 1024-channel standard,
checks thermal safety, and asks the two headline questions of the paper:
how far can this design stream raw data, and can it host a modern DNN?

Run:  python examples/quickstart.py
"""

from repro.core.comm_centric import DesignHypothesis, budget_crossing_channels
from repro.core.comp_centric import (
    Workload,
    evaluate_comp_centric,
    max_feasible_channels,
)
from repro.core.qam_design import evaluate_qam_design
from repro.core.scaling import scale_to_standard
from repro.core.socs import soc_by_number
from repro.thermal.budget import assess
from repro.units import to_mbps, to_mw


def main() -> None:
    # 1. Pick a published design: SoC 1 (BISC) from Table 1.
    bisc = scale_to_standard(soc_by_number(1))
    print(f"Design: {bisc.name} at {bisc.n_channels} channels")
    print(f"  area {bisc.area_m2 * 1e6:.0f} mm^2, "
          f"power {to_mw(bisc.power_w):.1f} mW, "
          f"sampling {bisc.sampling_hz / 1e3:.0f} kHz")

    # 2. Thermal safety (Eq. 3: 40 mW/cm^2).
    print(f"  safety: {assess(bisc.power_w, bisc.area_m2).describe()}")

    # 3. Raw-data streaming (Eq. 6): how much data, and how far does the
    #    communication-centric design scale before crossing the budget?
    print(f"  raw sensing throughput: "
          f"{to_mbps(bisc.sensing_throughput_bps()):.1f} Mbps")
    crossing = budget_crossing_channels(bisc, DesignHypothesis.HIGH_MARGIN)
    print(f"  high-margin OOK design crosses the power budget at "
          f"~{crossing} channels")
    qam = evaluate_qam_design(bisc, 2048)
    print(f"  streaming 2048 channels with {2 ** qam.bits_per_symbol}-QAM "
          f"needs >= {qam.min_efficiency:.0%} transmitter efficiency")

    # 4. On-implant computation (Eq. 13): can the speech-synthesis DNNs
    #    run on the implant, and up to how many channels?
    for workload in Workload:
        point = evaluate_comp_centric(bisc, workload, 1024)
        limit = max_feasible_channels(bisc, workload)
        verdict = "fits" if point.fits else "exceeds budget"
        print(f"  {workload.value:6s} @1024ch: P_soc/P_budget = "
              f"{point.power_ratio:.2f} ({verdict}); max ~{limit} channels")


if __name__ == "__main__":
    main()

"""Closed-loop BCI feasibility study (the paper's future-work direction).

A closed-loop implant senses, decodes, and stimulates — no telemetry —
and must complete the loop within the brain's ~0.18 s reaction time.
This example walks a published design through the closed-loop analysis:
loop latency breakdown, power budget with stimulation, how far the
channel count scales, and what wireless power transfer losses do to the
effective budget.

Run:  python examples/closed_loop_bci.py
"""

from repro.core.closed_loop import (
    BRAIN_REACTION_TIME_S,
    StimulationConfig,
    evaluate_closed_loop,
)
from repro.core.scaling import scale_to_standard
from repro.core.socs import soc_by_number
from repro.dnn.models import build_speech_mlp
from repro.experiments.report import format_table
from repro.link.wpt import InductiveLink
from repro.units import to_mw


def main() -> None:
    soc = scale_to_standard(soc_by_number(1))
    stimulation = StimulationConfig(n_electrodes=32)
    print(f"closed-loop analysis for {soc.name} "
          f"(reaction budget {BRAIN_REACTION_TIME_S * 1e3:.0f} ms, "
          f"{stimulation.n_electrodes} stim electrodes)\n")

    rows = []
    for n in (1024, 2048, 4096, 8192):
        network = build_speech_mlp(n)
        point = evaluate_closed_loop(soc, network, n,
                                     stimulation=stimulation)
        rows.append({
            "channels": n,
            "loop_ms": point.loop_latency_s * 1e3,
            "decode_ms": point.decode_s * 1e3,
            "comp_mw": to_mw(point.comp_power_w),
            "stim_mw": to_mw(point.stim_power_w),
            "power_ratio": point.power_ratio,
            "feasible": point.feasible,
        })
    print(format_table(rows))

    print("\nBecause a closed loop decodes once per *decision* instead of "
          "once per sample,\nthe Eq. 11 deadline relaxes by orders of "
          "magnitude and far larger models fit\nthan the Fig. 10 "
          "streaming analysis allows.")

    # WPT: powering the loop wirelessly shrinks the usable budget.
    wpt = InductiveLink()
    budget = soc.budget_w()
    effective = wpt.effective_budget(budget)
    print(f"\nwireless power transfer (coil eta "
          f"{wpt.link_efficiency:.0%}, implant chain "
          f"{wpt.implant_chain_efficiency:.0%}):")
    print(f"  thermal budget {to_mw(budget):.1f} mW -> usable "
          f"{to_mw(effective):.1f} mW after receive-chain losses")
    print(f"  external transmitter must radiate "
          f"{to_mw(wpt.transmit_power_for(effective)):.0f} mW to deliver "
          f"it")


if __name__ == "__main__":
    main()

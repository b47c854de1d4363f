"""Fig. 9 reproduction: accelerator design-point power study.

Twelve (MACseq, MAChw, #MACop) configurations of the weight-stationary
layer accelerator; the PE share of total power should climb from ~25 % in
the small designs (1-5) through ~80 % (design 9) to ~96 % (design 12) —
the observation that justifies the MAC-only power lower bound.
"""

from __future__ import annotations

from repro.accel.power import AcceleratorPowerModel, fig9_power_table
from repro.experiments.base import ExperimentResult
from repro.experiments.report import ascii_plot, format_table
from repro.obs.recorder import set_gauge, span

COLUMNS = ["design", "mac_seq", "mac_hw", "mac_ops", "layer_power_mw",
           "pe_power_mw", "pe_fraction"]


def run(model: AcceleratorPowerModel | None = None) -> ExperimentResult:
    """Regenerate the Fig. 9 table and trend."""
    with span("fig9.power_table"):
        rows = fig9_power_table(model)
    small = [r["pe_fraction"] for r in rows if r["design"] <= 5]
    summary = {
        "pe_fraction_designs_1_5": sum(small) / len(small),
        "pe_fraction_design_9": rows[8]["pe_fraction"],
        "pe_fraction_design_12": rows[11]["pe_fraction"],
        "power_monotone_6_12": all(
            rows[i]["layer_power_mw"] <= rows[i + 1]["layer_power_mw"]
            for i in range(5, 11)),
    }
    set_gauge("fig9.pe_fraction_design_12",
              summary["pe_fraction_design_12"])
    return ExperimentResult(
        name="fig9",
        title="Fig. 9: accelerator design points — PE power dominance",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """Table plus ASCII trends of power and PE fraction."""
    power_series = {
        "layer power [mW]": [(r["design"], r["layer_power_mw"])
                             for r in result.rows],
        "PE power [mW]": [(r["design"], r["pe_power_mw"])
                          for r in result.rows],
    }
    fraction_series = {
        "PE fraction": [(r["design"], r["pe_fraction"])
                        for r in result.rows],
    }
    return "\n\n".join([
        format_table(result.rows, COLUMNS),
        ascii_plot(power_series, x_label="design point",
                   y_label="power [mW]", height=12),
        ascii_plot(fraction_series, x_label="design point",
                   y_label="PE power / layer power", height=10),
    ])


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

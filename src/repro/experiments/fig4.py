"""Fig. 4 reproduction: power vs area of all SoCs scaled to 1024 channels.

Every design, after the Section 4.1 scaling and corrections, must fall
below the 40 mW/cm^2 budget line — the paper's sanity check that the
scaled set is a plausible foundation for the beyond-1024 study.
"""

from __future__ import annotations

from repro.core.scaling import scale_to_standard
from repro.core.socs import TABLE1
from repro.experiments.base import ExperimentResult
from repro.experiments.report import ascii_plot, format_table
from repro.obs.recorder import set_gauge, span
from repro.thermal.budget import assess
from repro.units import to_mm2, to_mw, to_mw_per_cm2

COLUMNS = ["number", "name", "area_mm2", "power_mw",
           "power_density_mw_cm2", "budget_mw", "safe"]


def run() -> ExperimentResult:
    """Scale each Table 1 design to 1024 channels and assess safety."""
    rows = []
    with span("fig4.scale_and_assess", n_designs=len(TABLE1)):
        for record in TABLE1:
            scaled = scale_to_standard(record)
            report = assess(scaled.power_w, scaled.area_m2)
            rows.append({
                "number": record.number,
                "name": scaled.name,
                "area_mm2": to_mm2(scaled.area_m2),
                "power_mw": to_mw(scaled.power_w),
                "power_density_mw_cm2": to_mw_per_cm2(report.density_w_m2),
                "budget_mw": to_mw(report.budget_w),
                "safe": report.safe,
            })
    with span("fig4.summary"):
        summary = {
            "all_safe": all(r["safe"] for r in rows),
            "max_density_mw_cm2": max(r["power_density_mw_cm2"]
                                      for r in rows),
        }
    set_gauge("fig4.max_density_mw_cm2", summary["max_density_mw_cm2"])
    return ExperimentResult(
        name="fig4",
        title="Fig. 4: power vs area at 1024 channels (all below budget)",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """Table plus an ASCII scatter of power vs area with the budget line."""
    series = {
        "designs": [(r["area_mm2"], r["power_mw"]) for r in result.rows],
        "budget line": [(a, a / 100.0 * 40.0)
                        for a in range(0, 200, 10)],
    }
    chart = ascii_plot(series, x_label="area [mm^2]", y_label="power [mW]")
    return format_table(result.rows, COLUMNS) + "\n\n" + chart


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

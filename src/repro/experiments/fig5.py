"""Fig. 5 reproduction: SoC power vs budget under naive / high-margin OOK.

For each wireless SoC and n in {1024, 2048, 4096, 8192}, report the
sensing / non-sensing power split relative to the power budget.  Naive
designs hold a constant P_soc/P_budget ratio; high-margin designs
eventually exceed the budget.
"""

from __future__ import annotations

from repro.core.comm_centric import DesignHypothesis, evaluate_comm_centric
from repro.core.comm_centric import budget_crossing_channels
from repro.core.scaling import scale_to_standard
from repro.core.socs import wireless_socs
from repro.experiments.base import ExperimentResult, mean_of
from repro.experiments.report import format_table
from repro.obs.recorder import set_gauge, span
from repro.units import to_mw

#: The Fig. 5 x-axis.
CHANNEL_COUNTS = (1024, 2048, 4096, 8192)

COLUMNS = ["soc", "hypothesis", "channels", "sensing_mw", "non_sensing_mw",
           "total_mw", "budget_mw", "power_ratio", "within_budget"]


def run() -> ExperimentResult:
    """Regenerate both Fig. 5 panels."""
    rows = []
    crossings = {}
    with span("fig5.sweep", channel_counts=len(CHANNEL_COUNTS)):
        for record in wireless_socs():
            soc = scale_to_standard(record)
            for hypothesis in DesignHypothesis:
                for n in CHANNEL_COUNTS:
                    point = evaluate_comm_centric(soc, n, hypothesis)
                    rows.append({
                        "soc": soc.name,
                        "hypothesis": hypothesis.value,
                        "channels": n,
                        "sensing_mw": to_mw(point.sensing_power_w),
                        "non_sensing_mw": to_mw(point.non_sensing_power_w),
                        "total_mw": to_mw(point.total_power_w),
                        "budget_mw": to_mw(point.budget_w),
                        "power_ratio": point.power_ratio,
                        "within_budget": point.within_budget,
                    })
            crossings[soc.name] = budget_crossing_channels(
                soc, DesignHypothesis.HIGH_MARGIN)

    with span("fig5.summary"):
        naive = [r for r in rows if r["hypothesis"] == "naive"]
        ratios_1024 = [r["power_ratio"] for r in naive
                       if r["channels"] == 1024]
        ratios_8192 = [r["power_ratio"] for r in naive
                       if r["channels"] == 8192]
        summary = {
            "naive_ratio_constant": all(
                abs(a - b) < 1e-9
                for a, b in zip(ratios_1024, ratios_8192)),
            "naive_all_within_budget": all(r["within_budget"]
                                           for r in naive),
            "high_margin_crossings": crossings,
            "high_margin_all_cross": all(c is not None
                                         for c in crossings.values()),
            "mean_crossing_channels": mean_of(
                [c for c in crossings.values() if c is not None]),
        }
    set_gauge("fig5.mean_crossing_channels",
              summary["mean_crossing_channels"])
    return ExperimentResult(
        name="fig5",
        title="Fig. 5: P_soc vs P_budget, naive and high-margin designs",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """Per-hypothesis stacked-bar style tables."""
    blocks = []
    for hypothesis in ("naive", "high_margin"):
        subset = [r for r in result.rows if r["hypothesis"] == hypothesis]
        blocks.append(f"--- {hypothesis} design ---")
        blocks.append(format_table(subset, COLUMNS))
    blocks.append("high-margin budget crossings: "
                  f"{result.summary['high_margin_crossings']}")
    return "\n".join(blocks)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

"""Fig. 7 reproduction: minimum QAM efficiency vs channel count.

For each wireless SoC, sweep n and compute the minimum QAM implementation
efficiency that keeps P_soc within P_budget.  The aggregate curve averages
the SoCs whose transceivers are realizable at today's ~15 % efficiency
standard at the 1024-channel anchor (the consistent set the paper's
multipliers — ~2x at 20 %, ~4x at 100 % — refer to).
"""

from __future__ import annotations

import math

from repro.core.qam_design import (
    evaluate_qam_design,
    max_channels_at_efficiency,
)
from repro.core.scaling import scale_to_standard
from repro.core.socs import wireless_socs
from repro.experiments.base import ExperimentResult, mean_of
from repro.experiments.report import ascii_plot, format_table
from repro.link.budget import LinkBudget
from repro.obs.recorder import set_gauge, span

#: Sweep range of the Fig. 7 x-axis.
CHANNEL_COUNTS = tuple(range(1024, 6144 + 1, 256))

#: Today's achievable QAM efficiency (paper Section 5.2).
CURRENT_STANDARD_EFFICIENCY = 0.15

COLUMNS = ["soc", "channels", "bits_per_symbol", "min_efficiency_pct",
           "feasible"]


def run(budget: LinkBudget | None = None) -> ExperimentResult:
    """Regenerate the Fig. 7 efficiency curves and headline multipliers."""
    link_budget = budget or LinkBudget()
    socs = [scale_to_standard(r) for r in wireless_socs()]
    rows = []
    with span("fig7.sweep", n_socs=len(socs),
              channel_counts=len(CHANNEL_COUNTS)):
        for soc in socs:
            for n in CHANNEL_COUNTS:
                point = evaluate_qam_design(soc, n, link_budget)
                rows.append({
                    "soc": soc.name,
                    "channels": n,
                    "bits_per_symbol": point.bits_per_symbol,
                    "min_efficiency_pct": (
                        point.min_efficiency * 100
                        if math.isfinite(point.min_efficiency)
                        else math.inf),
                    "feasible": point.feasible,
                })

    with span("fig7.multipliers"):
        realizable = [
            soc for soc in socs
            if evaluate_qam_design(soc, 1024, link_budget).min_efficiency
            <= CURRENT_STANDARD_EFFICIENCY
        ]
        max_at_20 = {s.name: max_channels_at_efficiency(s, 0.20,
                                                        link_budget)
                     for s in realizable}
        max_at_100 = {s.name: max_channels_at_efficiency(s, 1.00,
                                                         link_budget)
                      for s in realizable}

    summary = {
        "realizable_socs": [s.name for s in realizable],
        "max_channels_at_20pct": max_at_20,
        "max_channels_at_100pct": max_at_100,
        "avg_channels_at_20pct": mean_of(list(max_at_20.values())),
        "avg_channels_at_100pct": mean_of(list(max_at_100.values())),
        "multiplier_at_20pct": mean_of(list(max_at_20.values())) / 1024,
        "multiplier_at_100pct": mean_of(list(max_at_100.values())) / 1024,
    }
    set_gauge("fig7.multiplier_at_20pct", summary["multiplier_at_20pct"])
    set_gauge("fig7.multiplier_at_100pct",
              summary["multiplier_at_100pct"])
    return ExperimentResult(
        name="fig7",
        title="Fig. 7: minimum QAM efficiency vs channel count",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """ASCII chart of per-SoC efficiency curves (clipped at 120 %)."""
    series = {}
    for row in result.rows:
        series.setdefault(row["soc"], []).append(
            (row["channels"], row["min_efficiency_pct"]))
    chart = ascii_plot(series, x_label="channels",
                       y_label="min QAM efficiency [%]", y_max=120.0)
    lines = [chart, ""]
    lines += [f"{key}: {value}" for key, value in result.summary.items()]
    lines.append("")
    lines.append(format_table(
        [r for r in result.rows if r["channels"] % 1024 == 0], COLUMNS))
    return "\n".join(lines)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

"""Fig. 10 reproduction: on-implant DNN power vs the budget.

For each wireless SoC and both workloads (MLP, DN-CNN), sweep the channel
count and report the Eq. 13 lower-bound P_soc normalized to P_budget, plus
the per-SoC maximum feasible channel count.  Headline claims: several SoCs
cannot integrate the DNNs even at 1024 channels, and the SoCs that can
top out well below 2x the current standard.
"""

from __future__ import annotations

import math

from repro.core.comp_centric import (
    Workload,
    evaluate_comp_centric,
    max_feasible_channels,
)
from repro.core.scaling import scale_to_standard
from repro.core.socs import wireless_socs
from repro.experiments.base import ExperimentResult, mean_of
from repro.experiments.report import ascii_plot, format_table
from repro.obs.recorder import observe, span

#: The Fig. 10 x-axis.
CHANNEL_COUNTS = tuple(range(1024, 7168 + 1, 1024))

COLUMNS = ["soc", "workload", "channels", "power_ratio", "fits"]


def run() -> ExperimentResult:
    """Regenerate both Fig. 10 panels."""
    socs = [scale_to_standard(r) for r in wireless_socs()]
    rows = []
    fits_at_1024: dict[str, list[str]] = {}
    maxima: dict[str, dict[str, int]] = {}
    for workload in Workload:
        fits_at_1024[workload.value] = []
        maxima[workload.value] = {}
        with span("fig10.sweep", workload=workload.value,
                  n_socs=len(socs)):
            for soc in socs:
                for n in CHANNEL_COUNTS:
                    point = evaluate_comp_centric(soc, workload, n)
                    ratio = point.power_ratio
                    rows.append({
                        "soc": soc.name,
                        "workload": workload.value,
                        "channels": n,
                        "power_ratio": ratio if math.isfinite(ratio)
                        else math.inf,
                        "fits": point.fits,
                    })
                if evaluate_comp_centric(soc, workload, 1024).fits:
                    fits_at_1024[workload.value].append(soc.name)
                maxima[workload.value][soc.name] = max_feasible_channels(
                    soc, workload)

    summary = {}
    with span("fig10.summary"):
        for workload in Workload:
            key = workload.value
            fitting = fits_at_1024[key]
            feasible_maxima = [maxima[key][name] for name in fitting]
            summary[f"{key}_fits_at_1024"] = fitting
            summary[f"{key}_max_channels"] = maxima[key]
            summary[f"{key}_avg_max_channels"] = mean_of(feasible_maxima)
            observe("fig10.avg_max_channels",
                    summary[f"{key}_avg_max_channels"])
    return ExperimentResult(
        name="fig10",
        title="Fig. 10: P_soc/P_budget with on-implant DNNs",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """Per-workload ASCII charts (clipped at ratio 5, as in the paper)."""
    blocks = []
    for workload in ("mlp", "dncnn"):
        series = {}
        for row in result.rows:
            if row["workload"] != workload:
                continue
            series.setdefault(row["soc"], []).append(
                (row["channels"], row["power_ratio"]))
        blocks.append(f"--- {workload} ---")
        blocks.append(ascii_plot(series, x_label="channels",
                                 y_label="P_soc / P_budget", y_max=5.0))
    blocks += [f"{k}: {v}" for k, v in result.summary.items()]
    blocks.append(format_table(result.rows, COLUMNS))
    return "\n".join(blocks)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

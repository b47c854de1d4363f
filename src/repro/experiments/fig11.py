"""Fig. 11 reproduction: channel-count gains from DNN partitioning.

For each wireless SoC and workload, compare the maximum feasible channel
count with and without layer reduction.  Headline claims: the MLP gains
~20 % on average (best ~40 %); the DN-CNN gains nothing because every
intermediate feature map exceeds the 1024-value transmission budget.
"""

from __future__ import annotations

from repro.core.comp_centric import Workload, partitioning_gain
from repro.core.scaling import scale_to_standard
from repro.core.socs import wireless_socs
from repro.experiments.base import ExperimentResult, mean_of
from repro.experiments.report import ascii_bars, format_table
from repro.obs.recorder import set_gauge, span

COLUMNS = ["soc", "workload", "max_channels_full",
           "max_channels_partitioned", "gain_ratio"]


def run() -> ExperimentResult:
    """Regenerate the Fig. 11 bars."""
    socs = [scale_to_standard(r) for r in wireless_socs()]
    rows = []
    for workload in Workload:
        with span("fig11.partition", workload=workload.value):
            for soc in socs:
                gain = partitioning_gain(soc, workload)
                rows.append({
                    "soc": soc.name,
                    "workload": workload.value,
                    "max_channels_full": gain.max_channels_full,
                    "max_channels_partitioned":
                        gain.max_channels_partitioned,
                    "gain_ratio": gain.gain_ratio,
                })

    def gains(workload: str) -> list[float]:
        return [r["gain_ratio"] for r in rows
                if r["workload"] == workload and r["gain_ratio"] > 0]

    summary = {
        "mlp_avg_gain": mean_of(gains("mlp")),
        "mlp_best_gain": max(gains("mlp")),
        "dncnn_avg_gain": mean_of(gains("dncnn")),
        "dncnn_any_benefit": any(g > 1.0 + 1e-9 for g in gains("dncnn")),
    }
    set_gauge("fig11.mlp_avg_gain", summary["mlp_avg_gain"])
    return ExperimentResult(
        name="fig11",
        title="Fig. 11: channel gains from implant/wearable partitioning",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """Bar charts of the gain ratios per workload."""
    blocks = []
    for workload in ("mlp", "dncnn"):
        bars = {r["soc"]: r["gain_ratio"] for r in result.rows
                if r["workload"] == workload}
        blocks.append(f"--- {workload} gain ratio (1.0 = no benefit) ---")
        blocks.append(ascii_bars(bars, reference=1.0,
                                 reference_label="no benefit"))
    blocks.append(format_table(result.rows, COLUMNS))
    blocks += [f"{k}: {v}" for k, v in result.summary.items()]
    return "\n".join(blocks)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

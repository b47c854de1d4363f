"""Fig. 12 reproduction: feasible MLP model size under the optimization
ladder (ChDr -> +La -> +Tech -> +Dense).

For each wireless SoC and n in {2048, 4096, 8192}, report the largest MLP
(as a fraction of the unoptimized n-channel model's parameters) that fits
the power budget after each cumulative optimization step.
"""

from __future__ import annotations

from repro.core.optimizations import evaluate_ladder
from repro.core.scaling import scale_to_standard
from repro.core.socs import wireless_socs
from repro.experiments.base import ExperimentResult, mean_of
from repro.experiments.report import ascii_bars, format_table
from repro.obs.recorder import observe, span

#: The Fig. 12 x-axis.
CHANNEL_COUNTS = (2048, 4096, 8192)

COLUMNS = ["soc", "channels", "step", "active_channels",
           "model_size_pct"]


def run() -> ExperimentResult:
    """Regenerate the Fig. 12 grid."""
    socs = [scale_to_standard(r) for r in wireless_socs()]
    rows = []
    with span("fig12.ladder", n_socs=len(socs)):
        for soc in socs:
            for n in CHANNEL_COUNTS:
                for design in evaluate_ladder(soc, n):
                    rows.append({
                        "soc": soc.name,
                        "channels": n,
                        "step": design.step_name,
                        "active_channels": design.active_channels,
                        "model_size_pct":
                            design.model_size_fraction * 100.0,
                    })

    summary = {}
    with span("fig12.summary"):
        for n in CHANNEL_COUNTS:
            for step in ("ChDr", "La+ChDr", "La+ChDr+Tech",
                         "La+ChDr+Tech+Dense"):
                values = [r["model_size_pct"] for r in rows
                          if r["channels"] == n and r["step"] == step]
                summary[f"avg_model_size_pct_{n}_{step}"] = mean_of(values)
                observe("fig12.avg_model_size_pct",
                        summary[f"avg_model_size_pct_{n}_{step}"])
    return ExperimentResult(
        name="fig12",
        title="Fig. 12: feasible MLP size under combined optimizations",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """Per-(SoC, n) bar groups plus averages."""
    blocks = []
    for n in CHANNEL_COUNTS:
        blocks.append(f"--- n = {n} channels: avg model size per step ---")
        bars = {}
        for step in ("ChDr", "La+ChDr", "La+ChDr+Tech",
                     "La+ChDr+Tech+Dense"):
            bars[step] = result.summary[f"avg_model_size_pct_{n}_{step}"]
        blocks.append(ascii_bars(bars))
    blocks.append(format_table(result.rows, COLUMNS))
    return "\n".join(blocks)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

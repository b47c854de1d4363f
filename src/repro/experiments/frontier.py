"""Extension experiment: the strategy frontier across all wireless SoCs.

Not a paper artifact — this is the repository's synthesis table: for each
wireless design, the maximum safe channel count under every architectural
strategy the framework models (raw OOK, QAM, compression, event streaming,
on-implant DNNs, partitioning, multi-implant tiling), plus which strategy
wins at the 2048-channel short-term target.
"""

from __future__ import annotations

from repro.core.explorer import explore
from repro.core.multi_implant import max_implants
from repro.core.scaling import scale_to_standard
from repro.core.socs import wireless_socs
from repro.experiments.base import ExperimentResult
from repro.experiments.report import format_table
from repro.obs.recorder import set_gauge, span

#: The short-term scaling target the paper repeatedly discusses (2x).
TARGET_CHANNELS = 2048

COLUMNS = ["soc", "strategy", "max_channels", "power_ratio_at_2048",
           "feasible_at_2048"]


def run() -> ExperimentResult:
    """Build the frontier table."""
    socs = [scale_to_standard(r) for r in wireless_socs()]
    rows = []
    best_at_target = {}
    for soc in socs:
        with span("frontier.explore", soc=soc.name):
            report = explore(soc, target_channels=TARGET_CHANNELS)
        for outcome in report.outcomes:
            rows.append({
                "soc": soc.name,
                "strategy": outcome.strategy,
                "max_channels": outcome.max_channels,
                "power_ratio_at_2048": outcome.power_ratio_at_target,
                "feasible_at_2048": outcome.feasible_at_target,
            })
        rows.append({
            "soc": soc.name,
            "strategy": "multi-implant tiling",
            "max_channels": max_implants(soc) * soc.n_channels,
            "power_ratio_at_2048": float("nan"),
            "feasible_at_2048": max_implants(soc) >= 2,
        })
        best = report.best_strategy()
        best_at_target[soc.name] = best.strategy if best else None
    summary = {
        "best_strategy_at_2048": best_at_target,
        "n_socs_with_feasible_2048": sum(
            1 for name in best_at_target if best_at_target[name]),
    }
    set_gauge("frontier.n_socs_with_feasible_2048",
              float(summary["n_socs_with_feasible_2048"]))
    return ExperimentResult(
        name="frontier",
        title="Extension: strategy frontier across wireless SoCs",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """Per-SoC frontier tables plus the winners summary."""
    blocks = []
    socs = sorted({r["soc"] for r in result.rows},
                  key=lambda name: [r["soc"] for r in result.rows].index(
                      name))
    for soc in socs:
        subset = [r for r in result.rows if r["soc"] == soc]
        blocks.append(f"--- {soc} ---")
        blocks.append(format_table(subset, ["strategy", "max_channels",
                                            "power_ratio_at_2048",
                                            "feasible_at_2048"]))
    blocks.append(f"best strategy at {TARGET_CHANNELS} channels: "
                  f"{result.summary['best_strategy_at_2048']}")
    return "\n".join(blocks)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

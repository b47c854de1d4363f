"""Fig. 6 reproduction: sensing-area fraction (volumetric efficiency proxy).

For each wireless SoC and n in 1024..8192 (step 1024), report
A_sensing / A_soc under both hypotheses.  Naive designs are flat; the
high-margin fraction climbs toward 1 (Eq. 4).
"""

from __future__ import annotations

from repro.core.comm_centric import DesignHypothesis, evaluate_comm_centric
from repro.core.scaling import scale_to_standard
from repro.core.socs import wireless_socs
from repro.experiments.base import ExperimentResult
from repro.experiments.report import ascii_plot, format_table
from repro.obs.recorder import set_gauge, span

#: The Fig. 6 x-axis.
CHANNEL_COUNTS = tuple(range(1024, 8192 + 1, 1024))

COLUMNS = ["soc", "hypothesis", "channels", "sensing_area_fraction"]


def run() -> ExperimentResult:
    """Regenerate both Fig. 6 panels."""
    rows = []
    with span("fig6.sweep", channel_counts=len(CHANNEL_COUNTS)):
        for record in wireless_socs():
            soc = scale_to_standard(record)
            for hypothesis in DesignHypothesis:
                for n in CHANNEL_COUNTS:
                    point = evaluate_comm_centric(soc, n, hypothesis)
                    rows.append({
                        "soc": soc.name,
                        "hypothesis": hypothesis.value,
                        "channels": n,
                        "sensing_area_fraction":
                            point.sensing_area_fraction,
                    })

    def fractions(hypothesis: str, n: int) -> list[float]:
        return [r["sensing_area_fraction"] for r in rows
                if r["hypothesis"] == hypothesis and r["channels"] == n]

    with span("fig6.summary"):
        summary = {
            "naive_flat": all(
                abs(a - b) < 1e-9
                for a, b in zip(fractions("naive", 1024),
                                fractions("naive", 8192))),
            "high_margin_monotone": all(
                a <= b + 1e-12
                for a, b in zip(fractions("high_margin", 1024),
                                fractions("high_margin", 8192))),
            "high_margin_mean_at_8192": sum(
                fractions("high_margin", 8192))
            / len(list(wireless_socs())),
        }
    set_gauge("fig6.high_margin_mean_at_8192",
              summary["high_margin_mean_at_8192"])
    return ExperimentResult(
        name="fig6",
        title="Fig. 6: sensing area / total area vs channel count",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """ASCII chart of the high-margin fractions plus the full table."""
    series = {}
    for row in result.rows:
        if row["hypothesis"] != "high_margin":
            continue
        series.setdefault(row["soc"], []).append(
            (row["channels"], row["sensing_area_fraction"]))
    chart = ascii_plot(series, x_label="channels",
                       y_label="sensing area fraction")
    return chart + "\n\n" + format_table(result.rows, COLUMNS)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

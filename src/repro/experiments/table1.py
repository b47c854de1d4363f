"""Table 1 reproduction: the published implanted SoC designs."""

from __future__ import annotations

from repro.core.socs import TABLE1
from repro.experiments.base import ExperimentResult
from repro.experiments.report import format_table
from repro.obs.recorder import set_gauge, span
from repro.units import to_khz, to_mm2, to_mw_per_cm2

COLUMNS = ["number", "name", "ni_type", "channels", "area_mm2",
           "power_density_mw_cm2", "sampling_khz", "wireless",
           "below_budget"]


def run() -> ExperimentResult:
    """Regenerate Table 1 as structured rows."""
    rows = []
    with span("table1.rows", n_designs=len(TABLE1)):
        for record in TABLE1:
            rows.append({
                "number": record.number,
                "name": record.name,
                "ni_type": record.ni_type.value,
                "channels": record.n_channels,
                "area_mm2": to_mm2(record.area_m2),
                "power_density_mw_cm2": to_mw_per_cm2(
                    record.power_density_w_m2),
                "sampling_khz": to_khz(record.sampling_hz),
                "wireless": record.wireless,
                "below_budget": record.below_budget,
            })
    with span("table1.summary"):
        summary = {
            "n_designs": len(rows),
            "n_wireless": sum(1 for r in rows if r["wireless"]),
            "channel_range": (min(r["channels"] for r in rows),
                              max(r["channels"] for r in rows)),
        }
    set_gauge("table1.n_designs", float(summary["n_designs"]))
    set_gauge("table1.n_wireless", float(summary["n_wireless"]))
    return ExperimentResult(name="table1",
                            title="Table 1: implanted SoC designs",
                            rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """Text rendering of the table."""
    return format_table(result.rows, COLUMNS)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

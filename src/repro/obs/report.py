"""Per-run safety-envelope dashboard (``python -m repro obs report``).

Renders one markdown (or HTML) dashboard for a run's output directory,
answering the question the paper's system-level design perspective keeps
asking: *is this design point still inside every safety envelope?*

Verdicts are sourced from the run's own artifacts and the repo's
physical models — never re-stated numbers:

* **Power budget** (Eq. 3): each ``fig4.csv`` design re-assessed through
  :func:`repro.thermal.budget.assess` against the 40 mW/cm^2 limit.
* **Thermal rise**: the same designs' power densities pushed through the
  Pennes perfusion model
  (:meth:`repro.thermal.model.TissueThermalModel.steady_state_rise_k`)
  and compared to the safe ``SAFE_TEMPERATURE_RISE_K`` window.
* **Link BER/goodput**: the ``fig7.csv`` feasibility sweep (QAM
  efficiency at the paper's BER target) plus the ARQ goodput ratio the
  default packet geometry sustains at that BER
  (:func:`repro.link.protocol.effective_goodput`).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

from repro.link.budget import DEFAULT_BER
from repro.link.packetizer import Packetizer
from repro.link.protocol import effective_goodput, expected_transmissions
from repro.thermal.budget import assess as assess_power
from repro.thermal.model import TissueThermalModel
from repro.units import SAFE_TEMPERATURE_RISE_K, mm2, mw, to_mw

__all__ = ["build_dashboard", "load_csv_rows", "render_html",
           "render_markdown", "safety_envelopes"]

#: Upper edge of the paper's safe heating window (Section 3.2: 1-2 degC).
#: Below SAFE_TEMPERATURE_RISE_K is unconditionally safe; between the
#: two the dashboard warns; above fails.
UPPER_TEMPERATURE_RISE_K = 2.0


def load_csv_rows(path: Path | str) -> list[dict[str, str]]:
    """Rows of one results CSV as string dicts ([] when absent)."""
    path = Path(path)
    if not path.exists():
        return []
    with path.open("r", newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _power_envelope(rows: list[dict[str, str]]) -> dict[str, Any]:
    """Eq. 3 power-density verdict over the fig4 design points."""
    worst_margin_mw = None
    worst_name = None
    n_safe = 0
    for row in rows:
        report = assess_power(mw(float(row["power_mw"])),
                              mm2(float(row["area_mm2"])))
        n_safe += int(report.safe)
        margin_mw = to_mw(report.margin_w)
        if worst_margin_mw is None or margin_mw < worst_margin_mw:
            worst_margin_mw, worst_name = margin_mw, row["name"]
    return {
        "envelope": "power_budget",
        "limit": "40 mW/cm^2 (Eq. 3)",
        "n_designs": len(rows),
        "n_within": n_safe,
        "worst_case": worst_name,
        "worst_margin_mw": (round(worst_margin_mw, 3)
                            if worst_margin_mw is not None else None),
        "verdict": "PASS" if rows and n_safe == len(rows) else
                   ("NO-DATA" if not rows else "FAIL"),
    }


def _thermal_envelope(rows: list[dict[str, str]]) -> dict[str, Any]:
    """Pennes-model temperature-rise verdict over the same designs."""
    model = TissueThermalModel()
    worst_rise = None
    worst_name = None
    n_within = 0
    n_window = 0
    for row in rows:
        density_w_m2 = (mw(float(row["power_mw"]))
                        / mm2(float(row["area_mm2"])))
        rise = model.steady_state_rise_k(density_w_m2)
        n_within += int(rise <= SAFE_TEMPERATURE_RISE_K)
        n_window += int(rise <= UPPER_TEMPERATURE_RISE_K)
        if worst_rise is None or rise > worst_rise:
            worst_rise, worst_name = rise, row["name"]
    if not rows:
        verdict = "NO-DATA"
    elif n_within == len(rows):
        verdict = "PASS"
    elif n_window == len(rows):
        # Inside the paper's 1-2 degC safe window but above the
        # conservative 1 K line: acceptable, flagged.
        verdict = "WARN"
    else:
        verdict = "FAIL"
    return {
        "envelope": "thermal_rise",
        "limit": f"dT <= {SAFE_TEMPERATURE_RISE_K:g} K "
                 f"(warn to {UPPER_TEMPERATURE_RISE_K:g} K)",
        "n_designs": len(rows),
        "n_within": n_within,
        "worst_case": worst_name,
        "worst_rise_k": (round(worst_rise, 3)
                         if worst_rise is not None else None),
        "verdict": verdict,
    }


def _link_envelope(rows: list[dict[str, str]]) -> dict[str, Any]:
    """BER-target feasibility and ARQ goodput verdict.

    Feasibility comes from the run's fig7 sweep (is at least one QAM
    order realizable per SoC at today's efficiency); the goodput ratio
    is the fraction of raw rate delivered as payload at the paper's BER
    target with the default packet geometry — it must stay above the
    pure framing efficiency minus a 1 % retransmission allowance.
    """
    socs: dict[str, bool] = {}
    for row in rows:
        feasible = row["feasible"].strip().lower() == "true"
        socs[row["soc"]] = socs.get(row["soc"], False) or feasible
    packetizer = Packetizer()
    payload_bits = packetizer.payload_bytes * 8
    overhead_bits = (Packetizer.HEADER_BYTES + Packetizer.CRC_BYTES) * 8
    goodput_ratio = effective_goodput(1.0, DEFAULT_BER, payload_bits,
                                      overhead_bits)
    framing_ratio = payload_bits / (payload_bits + overhead_bits)
    retx = expected_transmissions(DEFAULT_BER,
                                  payload_bits + overhead_bits)
    goodput_ok = goodput_ratio >= framing_ratio * 0.99
    # The verdict is the link's own safety property: the ARQ penalty at
    # the BER target.  Per-SoC feasibility is reported context — the
    # paper itself finds some designs unrealizable at today's QAM
    # efficiency, which is a result, not a telemetry failure.
    return {
        "envelope": "link_ber_goodput",
        "limit": f"BER <= {DEFAULT_BER:g}, ARQ penalty < 1%",
        "n_designs": len(socs),
        "n_within": sum(socs.values()),
        "worst_case": next((name for name, ok in sorted(socs.items())
                            if not ok), None),
        "goodput_ratio": round(goodput_ratio, 4),
        "expected_transmissions": round(retx, 4),
        "verdict": "NO-DATA" if not socs else
                   ("PASS" if goodput_ok else "FAIL"),
    }


def safety_envelopes(output_dir: Path | str) -> list[dict[str, Any]]:
    """All envelope verdicts for one run's output directory."""
    output_dir = Path(output_dir)
    fig4_rows = load_csv_rows(output_dir / "fig4.csv")
    fig7_rows = load_csv_rows(output_dir / "fig7.csv")
    return [_power_envelope(fig4_rows), _thermal_envelope(fig4_rows),
            _link_envelope(fig7_rows)]


# -- dashboard assembly ----------------------------------------------------

def build_dashboard(output_dir: Path | str) -> dict[str, Any]:
    """The full dashboard as JSON-able data."""
    return {
        "output_dir": str(output_dir),
        "envelopes": safety_envelopes(output_dir),
    }


def _verdict_cell(verdict: str) -> str:
    mark = {"PASS": "&#9989;", "FAIL": "&#10060;"}.get(verdict, "&#9888;")
    return f"{mark} {verdict}"


def render_markdown(dashboard: dict[str, Any]) -> str:
    """The dashboard as a markdown document."""
    lines = [f"# Safety-envelope dashboard — `{dashboard['output_dir']}`",
             "",
             "## Safety envelopes", "",
             "| envelope | limit | within | worst case | verdict |",
             "|---|---|---|---|---|"]
    for env in dashboard["envelopes"]:
        detail = []
        if env.get("worst_margin_mw") is not None:
            detail.append(f"margin {env['worst_margin_mw']:+.2f} mW")
        if env.get("worst_rise_k") is not None:
            detail.append(f"dT {env['worst_rise_k']:.3f} K")
        if env.get("goodput_ratio") is not None:
            detail.append(f"goodput {env['goodput_ratio']:.4f}")
        worst = env.get("worst_case") or "-"
        if detail:
            worst = f"{worst} ({', '.join(detail)})"
        lines.append(
            f"| {env['envelope']} | {env['limit']} "
            f"| {env['n_within']}/{env['n_designs']} | {worst} "
            f"| {env['verdict']} |")
    verdicts = [env["verdict"] for env in dashboard["envelopes"]]
    if "FAIL" in verdicts:
        overall = "FAIL — check envelopes above"
    elif all(verdict == "PASS" for verdict in verdicts):
        overall = "PASS"
    else:
        overall = "PASS with warnings"
    lines += ["", f"**Overall: {overall}**", ""]
    return "\n".join(lines)


def render_html(dashboard: dict[str, Any]) -> str:
    """The dashboard as a standalone HTML page (no external assets)."""
    def table(headers: list[str], rows: list[list[str]]) -> str:
        head = "".join(f"<th>{cell}</th>" for cell in headers)
        body = "".join(
            "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
            for row in rows)
        return (f"<table><thead><tr>{head}</tr></thead>"
                f"<tbody>{body}</tbody></table>")

    env_rows = []
    for env in dashboard["envelopes"]:
        env_rows.append([env["envelope"], env["limit"],
                         f"{env['n_within']}/{env['n_designs']}",
                         str(env.get("worst_case") or "-"),
                         _verdict_cell(env["verdict"])])
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>Safety-envelope dashboard</title>",
        "<style>body{font-family:sans-serif;margin:2em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "td,th{border:1px solid #999;padding:4px 10px;"
        "text-align:left}</style></head><body>",
        f"<h1>Safety-envelope dashboard — "
        f"{dashboard['output_dir']}</h1>",
        "<h2>Safety envelopes</h2>",
        table(["envelope", "limit", "within", "worst case", "verdict"],
              env_rows),
        "</body></html>",
    ]
    return "\n".join(parts) + "\n"

"""Tests for the safety-envelope dashboard."""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.obs.report import (build_dashboard, load_csv_rows, render_html,
                              render_markdown, safety_envelopes)


def _write_csv(path: Path, rows: list[dict[str, object]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _write_fig4(directory: Path, power_mw: float = 1.0,
                area_mm2: float = 50.0, safe: bool = True) -> None:
    _write_csv(directory / "fig4.csv",
               [{"name": "demo-soc", "power_mw": power_mw,
                 "area_mm2": area_mm2, "safe": safe,
                 "power_density_mw_cm2": 2.0}])


def _write_fig7(directory: Path, feasible: bool = True) -> None:
    _write_csv(directory / "fig7.csv",
               [{"soc": "demo-soc", "channels": 1024,
                 "feasible": feasible}])


class TestEnvelopes:
    def test_cool_design_passes_all_envelopes(self, tmp_path):
        _write_fig4(tmp_path, power_mw=1.0, area_mm2=100.0)
        _write_fig7(tmp_path, feasible=True)
        envelopes = {env["envelope"]: env
                     for env in safety_envelopes(tmp_path)}
        assert envelopes["power_budget"]["verdict"] == "PASS"
        assert envelopes["thermal_rise"]["verdict"] == "PASS"
        assert envelopes["link_ber_goodput"]["verdict"] == "PASS"
        assert envelopes["link_ber_goodput"]["n_within"] == 1

    def test_hot_design_fails_power_and_thermal(self, tmp_path):
        # 500 mW over 10 mm^2 = 5 W/cm^2, far beyond 40 mW/cm^2
        _write_fig4(tmp_path, power_mw=500.0, area_mm2=10.0, safe=False)
        _write_fig7(tmp_path)
        envelopes = {env["envelope"]: env
                     for env in safety_envelopes(tmp_path)}
        assert envelopes["power_budget"]["verdict"] == "FAIL"
        assert envelopes["power_budget"]["worst_margin_mw"] < 0
        assert envelopes["thermal_rise"]["verdict"] == "FAIL"

    def test_missing_csvs_report_no_data(self, tmp_path):
        verdicts = [env["verdict"] for env in safety_envelopes(tmp_path)]
        assert verdicts == ["NO-DATA"] * 3

    def test_infeasible_soc_is_context_not_failure(self, tmp_path):
        _write_fig4(tmp_path)
        _write_fig7(tmp_path, feasible=False)
        link = safety_envelopes(tmp_path)[2]
        assert link["n_within"] == 0
        assert link["worst_case"] == "demo-soc"
        # ARQ goodput at the BER target still holds, so the link
        # envelope passes; infeasibility is a paper result.
        assert link["verdict"] == "PASS"

    def test_load_csv_rows_missing_file_is_empty(self, tmp_path):
        assert load_csv_rows(tmp_path / "absent.csv") == []


class TestRendering:
    def _dashboard(self, tmp_path):
        _write_fig4(tmp_path)
        _write_fig7(tmp_path)
        return build_dashboard(tmp_path)

    def test_markdown_has_verdicts_and_overall(self, tmp_path):
        text = render_markdown(self._dashboard(tmp_path))
        assert "power_budget" in text
        assert "thermal_rise" in text
        assert "link_ber_goodput" in text
        assert "**Overall: PASS**" in text

    def test_markdown_overall_fail_dominates(self, tmp_path):
        _write_fig4(tmp_path, power_mw=500.0, area_mm2=10.0, safe=False)
        _write_fig7(tmp_path)
        text = render_markdown(build_dashboard(tmp_path))
        assert "FAIL" in text and "Overall: FAIL" in text

    def test_html_is_standalone_page(self, tmp_path):
        html = render_html(self._dashboard(tmp_path))
        assert html.startswith("<!DOCTYPE html>")
        assert "power_budget" in html

    def test_dashboard_is_json_able_and_deterministic(self, tmp_path):
        first = self._dashboard(tmp_path)
        second = build_dashboard(tmp_path)
        assert json.loads(json.dumps(first)) == second

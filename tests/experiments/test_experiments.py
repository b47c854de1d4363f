"""Integration tests for the figure drivers — the paper-shape assertions.

Each test pins the qualitative claim the corresponding paper artifact
makes; EXPERIMENTS.md records the quantitative paper-vs-measured values.
"""

import math

import pytest

from repro.experiments import ALL_EXPERIMENTS, run_all
from repro.experiments import (
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig11,
    table1,
)


@pytest.fixture(scope="module")
def results():
    """Run each driver once for the whole module."""
    return {module.__name__.rsplit(".", 1)[-1]: module.run()
            for module in ALL_EXPERIMENTS}


class TestTable1:
    def test_eleven_rows(self, results):
        assert len(results["table1"].rows) == 11

    def test_summary(self, results):
        assert results["table1"].summary["n_wireless"] == 8

    def test_render_mentions_designs(self, results):
        text = table1.render(results["table1"])
        assert "Neuralink" in text and "BISC" in text


class TestFig4:
    def test_all_designs_safe(self, results):
        assert results["fig4"].summary["all_safe"]

    def test_density_at_most_40(self, results):
        assert results["fig4"].summary["max_density_mw_cm2"] <= 40.0 + 1e-9

    def test_halo_star_present(self, results):
        names = [r["name"] for r in results["fig4"].rows]
        assert "HALO*" in names

    def test_render_has_budget_line(self, results):
        assert "budget line" in fig4.render(results["fig4"])


class TestFig5:
    def test_naive_ratio_constant(self, results):
        assert results["fig5"].summary["naive_ratio_constant"]

    def test_naive_within_budget(self, results):
        assert results["fig5"].summary["naive_all_within_budget"]

    def test_high_margin_all_cross(self, results):
        assert results["fig5"].summary["high_margin_all_cross"]

    def test_mean_crossing_between_1k_and_8k(self, results):
        mean = results["fig5"].summary["mean_crossing_channels"]
        assert 1024 < mean < 8192

    def test_render_has_both_designs(self, results):
        text = fig5.render(results["fig5"])
        assert "naive design" in text and "high_margin design" in text


class TestFig6:
    def test_naive_flat(self, results):
        assert results["fig6"].summary["naive_flat"]

    def test_high_margin_monotone(self, results):
        assert results["fig6"].summary["high_margin_monotone"]

    def test_sensing_dominates_at_8192(self, results):
        assert results["fig6"].summary["high_margin_mean_at_8192"] > 0.8

    def test_render(self, results):
        assert "sensing area fraction" in fig6.render(results["fig6"])


class TestFig7:
    def test_realizable_socs_exist(self, results):
        assert len(results["fig7"].summary["realizable_socs"]) >= 3

    def test_20pct_multiplier_near_2x(self, results):
        assert results["fig7"].summary["multiplier_at_20pct"] == \
            pytest.approx(2.0, rel=0.15)

    def test_100pct_multiplier_near_4x(self, results):
        assert results["fig7"].summary["multiplier_at_100pct"] == \
            pytest.approx(4.0, rel=0.20)

    def test_efficiency_curves_rise(self, results):
        rows = [r for r in results["fig7"].rows if r["soc"] == "BISC"
                and math.isfinite(r["min_efficiency_pct"])]
        effs = [r["min_efficiency_pct"] for r in rows]
        assert effs == sorted(effs)

    def test_render(self, results):
        assert "min QAM efficiency" in fig7.render(results["fig7"])


class TestFig8:
    def test_examples_match_paper(self, results):
        summary = results["fig8"].summary
        assert summary["matmul_matches_paper"]
        assert summary["conv_matches_paper"]
        assert summary["live_conv_consistent"]

    def test_render(self, results):
        assert "Fig. 8 matmul" in fig8.render(results["fig8"])


class TestFig9:
    def test_small_designs_near_25pct(self, results):
        assert results["fig9"].summary["pe_fraction_designs_1_5"] == \
            pytest.approx(0.25, abs=0.05)

    def test_design_9_near_80pct(self, results):
        assert results["fig9"].summary["pe_fraction_design_9"] == \
            pytest.approx(0.80, abs=0.07)

    def test_design_12_near_96pct(self, results):
        assert results["fig9"].summary["pe_fraction_design_12"] == \
            pytest.approx(0.96, abs=0.03)

    def test_power_monotone(self, results):
        assert results["fig9"].summary["power_monotone_6_12"]

    def test_render(self, results):
        assert "PE power" in fig9.render(results["fig9"])


class TestFig10:
    def test_flagships_fit_both_dnns(self, results):
        summary = results["fig10"].summary
        for workload in ("mlp", "dncnn"):
            assert "BISC" in summary[f"{workload}_fits_at_1024"]
            assert "Gilhotra" in summary[f"{workload}_fits_at_1024"]

    def test_several_socs_cannot_fit(self, results):
        summary = results["fig10"].summary
        assert len(summary["dncnn_fits_at_1024"]) <= 3
        assert len(summary["mlp_fits_at_1024"]) <= 5

    def test_avg_max_channels_in_paper_range(self, results):
        summary = results["fig10"].summary
        assert 1300 <= summary["mlp_avg_max_channels"] <= 2100
        assert 1100 <= summary["dncnn_avg_max_channels"] <= 1700

    def test_mlp_scales_further_than_dncnn(self, results):
        summary = results["fig10"].summary
        assert (summary["mlp_avg_max_channels"]
                > summary["dncnn_avg_max_channels"])


class TestFig11:
    def test_mlp_gain_near_20pct(self, results):
        assert 1.10 <= results["fig11"].summary["mlp_avg_gain"] <= 1.35

    def test_mlp_best_gain(self, results):
        assert results["fig11"].summary["mlp_best_gain"] >= 1.3

    def test_dncnn_no_benefit(self, results):
        assert results["fig11"].summary["dncnn_avg_gain"] == \
            pytest.approx(1.0)
        assert not results["fig11"].summary["dncnn_any_benefit"]

    def test_render(self, results):
        assert "no benefit" in fig11.render(results["fig11"])


class TestFig12:
    def test_ladder_averages_track_paper(self, results):
        summary = results["fig12"].summary
        # Paper averages at 2048: ChDr 32 %, Tech 72 %; at 8192: ChDr 2 %.
        assert summary["avg_model_size_pct_2048_ChDr"] == pytest.approx(
            32.0, abs=12.0)
        assert summary["avg_model_size_pct_2048_La+ChDr+Tech"] == \
            pytest.approx(72.0, abs=12.0)
        assert summary["avg_model_size_pct_8192_ChDr"] == pytest.approx(
            2.0, abs=3.0)

    def test_la_improves_on_chdr(self, results):
        summary = results["fig12"].summary
        for n in (2048, 4096, 8192):
            assert (summary[f"avg_model_size_pct_{n}_La+ChDr"]
                    >= summary[f"avg_model_size_pct_{n}_ChDr"])

    def test_dense_shrinks_model(self, results):
        summary = results["fig12"].summary
        for n in (2048, 4096, 8192):
            assert (summary[f"avg_model_size_pct_{n}_La+ChDr+Tech+Dense"]
                    <= summary[f"avg_model_size_pct_{n}_La+ChDr+Tech"])


class TestRunAll:
    def test_writes_all_csvs(self, tmp_path):
        results = run_all(output_dir=tmp_path)
        assert len(results) == len(ALL_EXPERIMENTS)
        for result in results:
            assert (tmp_path / f"{result.name}.csv").exists()

    def test_results_named_after_artifacts(self, tmp_path):
        names = {r.name for r in run_all(output_dir=tmp_path)}
        assert names == {"table1", "fig4", "fig5", "fig6", "fig7",
                         "fig8", "fig9", "fig10", "fig11", "fig12"}

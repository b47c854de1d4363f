"""Tests for the extension frontier experiment and the result container."""

import pytest

from repro.experiments import (ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS,
                               frontier, run_all)
from repro.experiments.base import ExperimentResult, filter_finite, mean_of


@pytest.fixture(scope="module")
def result():
    return frontier.run()


class TestFrontierExperiment:
    def test_registered_as_extension(self):
        assert frontier in EXTENSION_EXPERIMENTS

    def test_every_wireless_soc_covered(self, result):
        socs = {row["soc"] for row in result.rows}
        assert len(socs) == 8

    def test_tiling_row_present_per_soc(self, result):
        tiling = [row for row in result.rows
                  if row["strategy"] == "multi-implant tiling"]
        assert len(tiling) == 8
        assert all(row["max_channels"] >= 1024 for row in tiling)

    def test_best_strategies_reported(self, result):
        best = result.summary["best_strategy_at_2048"]
        assert set(best) == {row["soc"] for row in result.rows}
        assert best["BISC"] is not None

    def test_render_contains_every_soc(self, result):
        text = frontier.render(result)
        for soc in ("BISC", "HALO*"):
            assert soc in text

    def test_run_all_includes_extensions_when_asked(self, tmp_path):
        results = run_all(output_dir=tmp_path,
                          modules=ALL_EXPERIMENTS + EXTENSION_EXPERIMENTS)
        names = [r.name for r in results]
        assert names[-1] == "frontier"
        assert (tmp_path / "frontier.csv").exists()


class TestExperimentResult:
    def test_save_csv_writes_columns(self, tmp_path):
        result = ExperimentResult(name="demo", title="t",
                                  rows=[{"a": 1, "b": 2.0}])
        path = result.save_csv(tmp_path)
        assert path.read_text().splitlines()[0] == "a,b"

    def test_summary_lines(self):
        result = ExperimentResult(name="demo", title="t", rows=[],
                                  summary={"x": 1, "y": "z"})
        assert result.summary_lines() == ["x: 1", "y: z"]

    def test_mean_of_empty(self):
        assert mean_of([]) == 0.0
        assert mean_of([2.0, 4.0]) == 3.0

    def test_filter_finite(self):
        import math
        assert filter_finite({"a": 1.0, "b": math.inf}) == {"a": 1.0}

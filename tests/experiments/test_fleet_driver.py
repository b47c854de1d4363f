"""The fleet experiment driver: registration, contract, rendering."""

import pytest

from repro.experiments import (
    EXTENSION_EXPERIMENTS,
    fleet as fleet_driver,
    run_module,
)
from repro.experiments.base import ExperimentResult
from repro.fleet.spec import FleetSpec


@pytest.fixture(scope="module")
def result():
    spec = fleet_driver.default_fleet(sessions=4)
    return fleet_driver.run_spec(spec, base_seed=5)


class TestRegistration:
    def test_registered_as_extension(self):
        assert fleet_driver in EXTENSION_EXPERIMENTS

    def test_frontier_stays_last(self):
        assert EXTENSION_EXPERIMENTS[-1].__name__.endswith("frontier")


class TestDefaultFleet:
    def test_covers_every_decoder_family(self):
        fleet = fleet_driver.default_fleet()
        assert {c.decoder for c in fleet.cohorts} == {
            "kalman", "wiener", "dnn"}

    def test_has_lossy_and_drifting_cohorts(self):
        fleet = fleet_driver.default_fleet()
        assert any(c.drop_rate > 0 for c in fleet.cohorts)
        assert any(c.tuning_drift_per_s != 0 for c in fleet.cohorts)

    def test_sessions_override(self):
        fleet = fleet_driver.default_fleet(sessions=3)
        assert all(c.n_sessions == 3 for c in fleet.cohorts)

    def test_decoder_filter(self):
        fleet = fleet_driver.default_fleet(decoder="kalman")
        assert isinstance(fleet, FleetSpec)
        assert all(c.decoder == "kalman" for c in fleet.cohorts)

    def test_unknown_decoder_filter_rejected(self):
        with pytest.raises(ValueError):
            fleet_driver.default_fleet(decoder="svm")


class TestContract:
    def test_result_shape(self, result):
        assert isinstance(result, ExperimentResult)
        assert result.name == "fleet"
        assert result.columns == fleet_driver.COLUMNS
        assert len(result.rows) == 5
        for row in result.rows:
            assert list(row) == fleet_driver.COLUMNS

    def test_summary_keys(self, result):
        assert result.summary["cohorts"] == 5
        assert result.summary["fleet_sessions"] == 20
        assert result.summary["best_clean_bitrate_p50_bps"] >= 0.0

    def test_render(self, result):
        text = fleet_driver.render(result)
        assert "kalman_clean" in text
        assert "bitrate" in text

    def test_runs_under_run_module(self):
        """The driver behaves under the instrumented entry point the
        evaluate CLI and run_all use (seed derivation + telemetry)."""
        small = fleet_driver.run_spec(
            fleet_driver.default_fleet(sessions=2), base_seed=5)
        assert small.rows
        result = run_module(fleet_driver, seed=5)
        assert result.name == "fleet"
        assert result.derived_seed is not None
        assert len(result.rows) == 5

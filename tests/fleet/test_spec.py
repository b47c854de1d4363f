"""Cohort/fleet specs and the zero-safe session result container."""

import pytest

from repro.fleet import (
    DECODER_FAMILIES,
    SESSION_COLUMNS,
    CohortSpec,
    FleetSpec,
    SessionResult,
    summarize_cohort,
)


class TestSessionResultZeroSafety:
    def test_empty_session_reports_zero_not_nan(self):
        """A zero-trial session must report 0.0 everywhere — never NaN
        (the regression this guards: mean-of-empty propagating NaN
        into fleet dashboards)."""
        empty = SessionResult(session=0, hits=0, trials=0)
        assert empty.hit_rate == 0.0
        assert empty.mean_time_to_target_s == 0.0
        assert empty.dropped_fraction == 0.0
        assert empty.time_active_s == 0.0
        assert empty.bitrate_bps == 0.0
        row = empty.to_row()
        assert all(value == value for value in row.values())  # no NaN
        assert row["hit_rate"] == 0.0
        assert row["mean_time_to_target_s"] == 0.0

    def test_hitless_session_has_zero_bitrate(self):
        missed = SessionResult(session=1, hits=0, trials=4,
                               total_windows=400, difficulty_bits=4.0)
        assert missed.bitrate_bps == 0.0
        assert missed.mean_time_to_target_s == 0.0
        assert missed.time_active_s == pytest.approx(8.0)

    def test_row_keys_match_schema(self):
        row = SessionResult(session=2, hits=3, trials=4,
                            times_to_target_s=[0.5, 0.6, 0.7],
                            total_windows=100,
                            difficulty_bits=4.0).to_row()
        assert tuple(row) == SESSION_COLUMNS
        assert all(isinstance(v, (int, float)) for v in row.values())

    def test_bitrate_is_fitts_throughput(self):
        session = SessionResult(session=0, hits=2, trials=2,
                                times_to_target_s=[0.5, 0.5],
                                total_windows=50, difficulty_bits=4.0,
                                dt_s=0.02)
        assert session.time_active_s == pytest.approx(1.0)
        assert session.bitrate_bps == pytest.approx(8.0)


class TestCohortSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(name="x", n_sessions=0),
        dict(name="x", decoder="svm"),
        dict(name="x", n_trials=0),
        dict(name="x", latency_steps=-1),
        dict(name="x", train_timesteps=1),
        dict(name="x", drop_rate=1.0),
        dict(name="x", drop_rate=-0.1),
        dict(name="x", n_lags=0),
        dict(name="x", hidden=0),
        dict(name="x", epochs=0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CohortSpec(**kwargs)

    def test_decoder_families(self):
        assert DECODER_FAMILIES == ("kalman", "wiener", "dnn")


class TestFleetSpec:
    def test_sessions_sum(self):
        fleet = FleetSpec([CohortSpec(name="a", n_sessions=3),
                           CohortSpec(name="b", n_sessions=5)])
        assert fleet.n_sessions == 8

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FleetSpec([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            FleetSpec([CohortSpec(name="a"), CohortSpec(name="a")])


class TestSummarizeCohort:
    def test_empty_rows_summary_is_zero_safe(self):
        spec = CohortSpec(name="empty")
        summary = summarize_cohort(spec, [])
        assert summary["sessions"] == 0
        assert summary["hit_rate_mean"] == 0.0
        assert summary["throughput_hits_per_s"] == 0.0
        assert summary["bitrate_p50_bps"] == 0.0

    def test_percentiles_over_rows(self):
        spec = CohortSpec(name="s")
        rows = [SessionResult(session=i, hits=1, trials=1,
                              times_to_target_s=[0.1 * (i + 1)],
                              total_windows=10, difficulty_bits=4.0,
                              ).to_row()
                for i in range(10)]
        summary = summarize_cohort(spec, rows)
        assert summary["sessions"] == 10
        assert summary["hit_rate_mean"] == 1.0
        assert summary["time_to_target_p50_s"] == pytest.approx(0.5)
        assert (summary["time_to_target_p99_s"]
                == pytest.approx(1.0))

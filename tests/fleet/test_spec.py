"""Cohort/fleet specs and the zero-safe per-session rows."""

import numpy as np
import pytest

from repro.fleet.result import (
    SESSION_COLUMNS,
    CohortTally,
    _row_means,
    summarize_cohort,
)
from repro.fleet.spec import DECODER_FAMILIES, CohortSpec, FleetSpec


def tally(times_s, hits=None, total=0, dropped=0, difficulty_bits=4.0,
          dt_s=0.02):
    """A cohort tally; ``times_s`` is one row per session (NaN = miss),
    and the other per-session counts are shared by every session."""
    times = np.array(times_s, dtype=float).reshape(len(times_s), -1)
    n = len(times)
    if hits is None:
        hits = int((~np.isnan(times[0])).sum())
    return CohortTally(hits=np.full(n, hits), dropped=np.full(n, dropped),
                       total=np.full(n, total), times_s=times,
                       efficiencies=np.full(times.shape, np.nan),
                       difficulty_bits=difficulty_bits, dt_s=dt_s)


class TestSessionResultZeroSafety:
    def test_empty_session_reports_zero_not_nan(self):
        """A zero-trial session must report 0.0 everywhere — never NaN
        (the regression this guards: mean-of-empty propagating NaN
        into fleet dashboards)."""
        row = tally([[]]).rows()[0]
        assert all(value == value for value in row.values())  # no NaN
        assert row["hit_rate"] == 0.0
        assert row["mean_time_to_target_s"] == 0.0
        assert row["dropped_pct"] == 0.0
        assert row["time_active_s"] == 0.0
        assert row["bitrate_bps"] == 0.0
        session = tally([[]]).sessions()[0]
        assert session.hit_rate == 0.0
        assert session.mean_time_to_target_s == 0.0

    def test_hitless_session_has_zero_bitrate(self):
        row = tally([[np.nan] * 4], total=400).rows()[0]
        assert row["bitrate_bps"] == 0.0
        assert row["mean_time_to_target_s"] == 0.0
        assert row["time_active_s"] == pytest.approx(8.0)

    def test_row_keys_match_schema(self):
        row = tally([[0.5, 0.6, 0.7, np.nan]], total=100).rows()[0]
        assert tuple(row) == SESSION_COLUMNS
        assert all(type(v) in (int, float) for v in row.values())
        assert row["trials"] == 4 and row["hits"] == 3

    def test_bitrate_is_fitts_throughput(self):
        row = tally([[0.5, 0.5]], total=50, dt_s=0.02).rows()[0]
        assert row["time_active_s"] == pytest.approx(1.0)
        assert row["bitrate_bps"] == pytest.approx(8.0)


class TestCohortTally:
    def test_row_means_bitwise_equal_per_row_mean(self):
        """Block reduction of equal-count rows against ``np.mean`` of
        each row alone, over counts past NumPy's 8-wide unrolled and
        128-wide pairwise sums."""
        rng = np.random.default_rng(5)
        for width in (1, 4, 9, 40, 300):
            values = rng.random((60, width)) * 1e3
            values[rng.random(values.shape) < 0.4] = np.nan
            expected = [float(np.mean(row[~np.isnan(row)]))
                        if not np.isnan(row).all() else 0.0
                        for row in values]
            assert _row_means(values).tolist() == expected

    def test_rows_agree_with_sessions(self):
        cohort = tally([[0.1, np.nan, 0.3], [np.nan] * 3, [0.2] * 3],
                       hits=2, total=30, dropped=3)
        for row, session in zip(cohort.rows(), cohort.sessions()):
            assert row["hit_rate"] == session.hit_rate
            assert (row["mean_time_to_target_s"]
                    == session.mean_time_to_target_s)
            assert row["dropped_pct"] == pytest.approx(10.0)


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
        rows = tally([[0.1 * (i + 1)] for i in range(10)],
                     total=10).rows()
        summary = summarize_cohort(spec, rows)
        assert summary["sessions"] == 10
        assert summary["hit_rate_mean"] == 1.0
        assert summary["time_to_target_p50_s"] == pytest.approx(0.5)
        assert (summary["time_to_target_p99_s"]
                == pytest.approx(1.0))

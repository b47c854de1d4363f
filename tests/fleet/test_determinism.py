"""Fleet determinism: replay, common random numbers, and sharding."""

import numpy as np
import pytest

from repro.fleet import (
    CohortSpec,
    FleetSpec,
    cohort_seed,
    run_fleet,
    simulate_cohort,
)
from repro.fleet.engine import _simulate
from repro.seeds import seeded_rng

BASE_SEED = 99


def rows_of(sessions):
    return [s.to_row() for s in sessions]


class TestReplay:
    def test_same_seed_twice_is_identical(self):
        spec = CohortSpec(name="replay", n_sessions=24, n_trials=4,
                          train_timesteps=120, timeout_s=2.0,
                          drop_rate=0.2)
        first = rows_of(simulate_cohort(spec, BASE_SEED))
        second = rows_of(simulate_cohort(spec, BASE_SEED))
        assert first == second

    def test_different_seeds_differ(self):
        spec = CohortSpec(name="replay", n_sessions=8, n_trials=4,
                          train_timesteps=120, timeout_s=2.0)
        assert (rows_of(simulate_cohort(spec, 1))
                != rows_of(simulate_cohort(spec, 2)))

    def test_cohort_streams_independent_of_fleet_composition(self):
        """A cohort's rows depend on (base seed, name) only — adding
        other cohorts to the fleet cannot perturb it."""
        spec = CohortSpec(name="alpha", n_sessions=6, n_trials=3,
                          train_timesteps=120, timeout_s=2.0)
        other = CohortSpec(name="beta", n_sessions=6, n_trials=3,
                          train_timesteps=120, timeout_s=2.0)
        alone = run_fleet(FleetSpec([spec]), BASE_SEED)
        paired = run_fleet(FleetSpec([other, spec]), BASE_SEED)
        assert alone[0].rows == paired[1].rows


class TestCommonRandomNumbers:
    def test_zero_drop_identical_to_no_fault(self):
        """drop_rate=0 must be byte-identical to a run with no fault
        stream at all (constructing the drop rng draws nothing)."""
        spec = CohortSpec(name="crn", n_sessions=12, n_trials=4,
                          train_timesteps=120, timeout_s=2.0,
                          drop_rate=0.0)
        seed = cohort_seed(BASE_SEED, spec.name)
        unfaulted = _simulate(spec, seeded_rng(seed), None, seed)
        assert rows_of(simulate_cohort(spec, BASE_SEED)) == rows_of(
            unfaulted)

    def test_drop_rates_share_session_streams(self):
        """Different drop rates reuse identical neural data: window
        counts match and only the drop bookkeeping moves."""
        base = dict(n_sessions=8, n_trials=4, train_timesteps=120,
                    timeout_s=2.0, latency_steps=2)
        clean = simulate_cohort(
            CohortSpec(name="crn2", drop_rate=0.0, **base), BASE_SEED)
        lossy = simulate_cohort(
            CohortSpec(name="crn2", drop_rate=0.4, **base), BASE_SEED)
        assert sum(s.dropped_windows for s in clean) == 0
        assert sum(s.dropped_windows for s in lossy) > 0

    def test_drift_zero_is_exact_base_path(self):
        base = dict(n_sessions=6, n_trials=3, train_timesteps=120,
                    timeout_s=2.0)
        plain = simulate_cohort(
            CohortSpec(name="drift", **base), BASE_SEED)
        zero = simulate_cohort(
            CohortSpec(name="drift", tuning_drift_per_s=0.0, **base),
            BASE_SEED)
        assert rows_of(plain) == rows_of(zero)

    def test_drift_changes_outcomes(self):
        base = dict(n_sessions=6, n_trials=3, train_timesteps=120,
                    timeout_s=2.0)
        plain = simulate_cohort(
            CohortSpec(name="drift", **base), BASE_SEED)
        drifted = simulate_cohort(
            CohortSpec(name="drift", tuning_drift_per_s=-0.2, **base),
            BASE_SEED)
        assert rows_of(plain) != rows_of(drifted)


class TestSharding:
    @pytest.fixture()
    def fleet(self):
        base = dict(n_sessions=6, n_trials=3, train_timesteps=120,
                    timeout_s=2.0)
        return FleetSpec([
            CohortSpec(name="shard_k", decoder="kalman", **base),
            CohortSpec(name="shard_w", decoder="wiener",
                       drop_rate=0.2, **base),
            CohortSpec(name="shard_d", decoder="dnn", **base),
        ])

    def test_serial_and_sharded_rows_identical(self, fleet):
        serial = run_fleet(fleet, BASE_SEED, jobs=1)
        sharded = run_fleet(fleet, BASE_SEED, jobs=2)
        assert [c.rows for c in serial] == [c.rows for c in sharded]
        assert [c.summary_row() for c in serial] == [
            c.summary_row() for c in sharded]

    def test_sharded_rows_keep_native_types(self, fleet):
        sharded = run_fleet(fleet, BASE_SEED, jobs=2)
        row = sharded[0].rows[0]
        assert isinstance(row["hits"], int)
        assert isinstance(row["bitrate_bps"], float)
        assert not any(isinstance(v, np.generic)
                       for v in row.values())

"""Tests for the closed-loop cursor-task simulator."""

import numpy as np
import pytest

from repro.decoders.kalman import KalmanFilterDecoder
from repro.decoders.wiener import WienerFilterDecoder
from repro.simulate.cursor_task import (
    CursorTask,
    SimulatedUser,
    run_closed_loop_session,
)


class TestSimulatedUser:
    def test_intent_points_at_target(self, rng):
        user = SimulatedUser()
        intent = user.intend(np.zeros(2), np.array([3.0, 0.0]))
        assert intent[0] > 0
        assert intent[1] == pytest.approx(0.0)

    def test_intent_speed_limited(self):
        user = SimulatedUser(intent_speed=1.0)
        intent = user.intend(np.zeros(2), np.array([100.0, 0.0]))
        assert np.linalg.norm(intent) == pytest.approx(1.0)

    def test_intent_slows_near_target(self):
        user = SimulatedUser(intent_speed=1.0)
        intent = user.intend(np.zeros(2), np.array([0.3, 0.0]))
        assert np.linalg.norm(intent) == pytest.approx(0.3)

    def test_zero_at_target(self):
        user = SimulatedUser()
        intent = user.intend(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(intent, np.zeros(2))

    def test_encoding_carries_direction(self, rng):
        user = SimulatedUser(noise_rms=0.0)
        preferred = user.preferred_directions(rng)
        east = user.encode(np.array([1.0, 0.0]), preferred, rng)
        west = user.encode(np.array([-1.0, 0.0]), preferred, rng)
        east_cells = preferred[:, 0] > 0.5
        assert east[east_cells].mean() > west[east_cells].mean()

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            SimulatedUser(n_channels=1)
        with pytest.raises(ValueError):
            SimulatedUser(intent_speed=0.0)


class TestCursorTask:
    def test_targets_on_ring(self, rng):
        task = CursorTask(target_distance=4.0)
        targets = task.targets(10, rng)
        radii = np.linalg.norm(targets, axis=1)
        np.testing.assert_allclose(radii, 4.0, rtol=1e-9)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            CursorTask(target_radius=0.0)
        with pytest.raises(ValueError):
            CursorTask(dt_s=1.0, timeout_s=0.5)


class TestClosedLoopSession:
    def test_kalman_user_hits_targets(self, rng):
        outcome = run_closed_loop_session(
            KalmanFilterDecoder(), SimulatedUser(noise_rms=0.2),
            CursorTask(), rng, n_trials=10)
        assert outcome.hit_rate >= 0.8
        assert outcome.mean_time_to_target_s > 0

    def test_wiener_user_hits_targets(self, rng):
        outcome = run_closed_loop_session(
            WienerFilterDecoder(n_lags=3), SimulatedUser(noise_rms=0.2),
            CursorTask(), rng, n_trials=10)
        assert outcome.hit_rate >= 0.8

    def test_noise_degrades_performance(self, rng):
        clean = run_closed_loop_session(
            KalmanFilterDecoder(), SimulatedUser(noise_rms=0.1),
            CursorTask(), rng, n_trials=12)
        noisy = run_closed_loop_session(
            KalmanFilterDecoder(), SimulatedUser(noise_rms=3.0),
            CursorTask(), rng, n_trials=12)
        assert (noisy.hit_rate < clean.hit_rate
                or noisy.mean_time_to_target_s
                > clean.mean_time_to_target_s)

    def test_latency_hurts_the_loop(self, rng):
        # The application-level cost of loop latency (Section 8): delayed
        # commands overshoot and slow acquisition.
        fast = run_closed_loop_session(
            KalmanFilterDecoder(), SimulatedUser(noise_rms=0.2),
            CursorTask(), rng, n_trials=12, latency_steps=0)
        slow = run_closed_loop_session(
            KalmanFilterDecoder(), SimulatedUser(noise_rms=0.2),
            CursorTask(), rng, n_trials=12, latency_steps=25)
        fast_score = fast.hit_rate / max(fast.mean_time_to_target_s, 1e-9)
        slow_score = (slow.hit_rate
                      / max(slow.mean_time_to_target_s, 1e-9)
                      if slow.hits else 0.0)
        assert slow_score < fast_score

    def test_path_efficiency_bounded(self, rng):
        outcome = run_closed_loop_session(
            KalmanFilterDecoder(), SimulatedUser(noise_rms=0.2),
            CursorTask(), rng, n_trials=8)
        assert 0.0 < outcome.mean_path_efficiency <= 1.2

    def test_rejects_invalid(self, rng):
        with pytest.raises(ValueError):
            run_closed_loop_session(KalmanFilterDecoder(),
                                    SimulatedUser(), CursorTask(), rng,
                                    n_trials=0)
        with pytest.raises(ValueError):
            run_closed_loop_session(KalmanFilterDecoder(),
                                    SimulatedUser(), CursorTask(), rng,
                                    latency_steps=-1)


class TestLinkDropDegradation:
    def _session(self, seed=1234, **kwargs):
        return run_closed_loop_session(
            KalmanFilterDecoder(), SimulatedUser(noise_rms=0.2),
            CursorTask(), np.random.default_rng(seed), n_trials=8,
            **kwargs)

    def test_drop_rate_zero_is_byte_identical_to_baseline(self):
        # Graceful degradation must cost nothing when disabled: the
        # explicit drop_rate=0.0 path may not consume a single extra
        # RNG draw relative to the pre-fault-layer signature.
        baseline = self._session()
        explicit = self._session(drop_rate=0.0)
        assert explicit.hits == baseline.hits
        assert explicit.times_to_target_s == baseline.times_to_target_s
        assert explicit.mean_path_efficiency == \
            baseline.mean_path_efficiency
        assert explicit.dropped_windows == 0

    def test_dropped_windows_are_counted(self):
        outcome = self._session(
            drop_rate=0.5, drop_rng=np.random.default_rng(9))
        assert outcome.total_windows > 0
        assert 0 < outcome.dropped_windows < outcome.total_windows
        assert outcome.dropped_fraction == pytest.approx(
            outcome.dropped_windows / outcome.total_windows)
        # Binomial: the observed fraction should be near the rate.
        assert 0.3 < outcome.dropped_fraction < 0.7

    def test_hold_last_command_keeps_the_session_alive(self):
        # Even at heavy loss the session completes and still acquires
        # some targets — the decoder coasts instead of crashing.
        outcome = self._session(
            drop_rate=0.6, drop_rng=np.random.default_rng(9))
        assert outcome.trials == 8
        assert outcome.hit_rate > 0.0

    def test_heavy_loss_degrades_performance(self):
        clean = self._session()
        lossy = self._session(
            drop_rate=0.7, drop_rng=np.random.default_rng(9))
        clean_score = clean.hit_rate / max(clean.mean_time_to_target_s,
                                           1e-9)
        lossy_score = (lossy.hit_rate
                       / max(lossy.mean_time_to_target_s, 1e-9)
                       if lossy.hits else 0.0)
        assert lossy_score < clean_score

    def test_rejects_bad_drop_configuration(self, rng):
        with pytest.raises(ValueError):
            self._session(drop_rate=1.0,
                          drop_rng=np.random.default_rng(9))
        with pytest.raises(ValueError):
            self._session(drop_rate=-0.1,
                          drop_rng=np.random.default_rng(9))
        with pytest.raises(ValueError, match="drop_rng"):
            self._session(drop_rate=0.25)

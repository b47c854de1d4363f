"""Bit-exactness of the fleet engine against the single-session oracle.

A 1-session cohort driven through :func:`run_closed_loop_cohort` must
reproduce :func:`run_closed_loop_session` bit-for-bit for every decoder
family, with and without link drops and loop latency — the parity
contract registered in ``repro.simulate.cursor_task.PARITY_ORACLES``.
A many-session cohort calibrates in stacked chunks; each stacked slice
must equal the scalar fit of that session's data (the ``PARITY_ORACLES``
of ``repro.decoders.kalman``, ``repro.decoders.wiener`` and
``repro.dnn.train``).
"""

import numpy as np
import pytest

from repro.decoders import kalman, wiener
from repro.decoders.kalman import closed_loop_gain_batch
from repro.dnn.layers import Dense, Tanh
from repro.dnn.network import Network
from repro.dnn.train import sgd_train, sgd_train_batch
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan, LinkFaults
from repro.fleet import CohortSpec, cohort_fault_seed, cohort_seed
from repro.fleet.decoders import calibrate_batch, make_session_decoder
from repro.fleet.engine import CALIBRATION_CHUNK, _calibration_chunks
from repro.seeds import seeded_rng
from repro.simulate.cursor_task import (
    PARITY_ORACLES,
    run_closed_loop_cohort,
    run_closed_loop_session,
)

BASE_SEED = 1234

#: Small-but-real session shape: enough steps for hits, fast to run.
SESSION_KW = dict(n_sessions=1, n_trials=4, train_timesteps=120,
                  timeout_s=2.0)

#: Sessions in a batched-calibration check: two full chunks and a
#: ragged one.
N_CALIBRATED = 2 * CALIBRATION_CHUNK + 3


def oracle_outcome(spec: CohortSpec, base_seed: int):
    """Drive the scalar oracle with the cohort's derived streams."""
    seed = cohort_seed(base_seed, spec.name)
    rng = seeded_rng(seed)
    decoder = make_session_decoder(spec, seed, 0)
    drop_rng = None
    if spec.drop_rate > 0:
        plan = FaultPlan(seed=cohort_fault_seed(base_seed, spec.name),
                         link=LinkFaults(drop_rate=spec.drop_rate))
        drop_rng = FaultInjector(plan).rng("link")
    return run_closed_loop_session(
        decoder, spec.user(), spec.task(), rng,
        n_trials=spec.n_trials, latency_steps=spec.latency_steps,
        train_timesteps=spec.train_timesteps, drop_rate=spec.drop_rate,
        drop_rng=drop_rng)


def assert_bit_exact(spec: CohortSpec):
    expected = oracle_outcome(spec, BASE_SEED)
    session = run_closed_loop_cohort(spec, BASE_SEED)[0]
    assert session.hits == expected.hits
    assert session.trials == expected.trials
    # == on floats: the contract is bit-exact, not approximate.
    assert session.times_to_target_s == expected.times_to_target_s
    assert (session.mean_path_efficiency
            == expected.mean_path_efficiency)
    assert session.dropped_windows == expected.dropped_windows
    assert session.total_windows == expected.total_windows
    assert session.hit_rate == expected.hit_rate
    assert (session.mean_time_to_target_s
            == expected.mean_time_to_target_s)


class TestSingleSessionParity:
    @pytest.mark.parametrize("decoder", ["kalman", "wiener", "dnn"])
    def test_decoder_family_bit_exact(self, decoder):
        spec = CohortSpec(name=f"parity_{decoder}", decoder=decoder,
                          **SESSION_KW)
        assert_bit_exact(spec)

    def test_lossy_link_bit_exact(self):
        spec = CohortSpec(name="parity_lossy", decoder="kalman",
                          drop_rate=0.3, **SESSION_KW)
        expected = oracle_outcome(spec, BASE_SEED)
        assert expected.dropped_windows > 0  # the faults really fired
        assert_bit_exact(spec)

    def test_loop_latency_bit_exact(self):
        spec = CohortSpec(name="parity_latency", decoder="kalman",
                          latency_steps=3, **SESSION_KW)
        assert_bit_exact(spec)

    def test_latency_and_drops_bit_exact(self):
        spec = CohortSpec(name="parity_both", decoder="wiener",
                          latency_steps=2, drop_rate=0.2, **SESSION_KW)
        assert_bit_exact(spec)

    def test_registered_in_parity_oracles(self):
        assert (PARITY_ORACLES["run_closed_loop_cohort"]
                == "run_closed_loop_session")

    def test_cohort_sessions_match_their_own_oracle_runs(self):
        """Every slice of a batched cohort calibration is bitwise equal
        to the scalar fit of that session's own data, for every family:
        ``2 * CALIBRATION_CHUNK + 3`` sessions give a ragged last chunk,
        and 120 timesteps a ragged 24-sample last minibatch."""
        for decoder in ("kalman", "wiener", "dnn"):
            spec = CohortSpec(name=f"parity_{decoder}_chunks",
                              decoder=decoder, n_sessions=N_CALIBRATED,
                              train_timesteps=120)
            velocity, chunks = calibration_chunks(spec)
            assert [len(states) for _, states, _ in chunks] == [
                CALIBRATION_CHUNK, CALIBRATION_CHUNK, 3]
            features = np.concatenate([obs for _, _, obs in chunks])
            seed = cohort_seed(BASE_SEED, spec.name)
            batch = calibrate_batch(spec, seed, chunks)
            scalars = []
            for i in range(spec.n_sessions):
                scalar = make_session_decoder(spec, seed, i)
                scalar.fit(velocity[i], features[i])
                scalars.append(scalar)
            if decoder == "kalman":
                stacked = [np.stack([getattr(s, name) for s in scalars])
                           for name in "AWHQ"]
                for got, want in zip(
                        kalman.fit_batch(velocity, features), stacked):
                    assert np.array_equal(got, want)
                gain, x_prior, hx_prior = closed_loop_gain_batch(*stacked)
                assert np.array_equal(batch.gain, gain)
                assert np.array_equal(batch.x_prior, x_prior)
                assert np.array_equal(batch.hx_prior, hx_prior)
            elif decoder == "wiener":
                want = np.stack([s.weights for s in scalars])
                assert np.array_equal(
                    wiener.fit_batch(velocity, features, spec.n_lags),
                    want)
                assert np.array_equal(batch.weights, want)
            else:
                layers = [s._decoder.network.layers for s in scalars]
                for got, position, name in (
                        (batch.w1, 0, "weight"), (batch.b1, 0, "bias"),
                        (batch.w2, 2, "weight"), (batch.b2, 2, "bias")):
                    want = np.stack([getattr(stack[position], name)
                                     for stack in layers])
                    assert np.array_equal(got, want)

    def test_batched_sgd_matches_sgd_train_per_slice(self):
        """sgd_train_batch is sgd_train run slice by slice, ragged last
        minibatch included (120 samples in batches of 32)."""
        rng = seeded_rng(5)
        n, t_len, n_in, hidden, n_out = 7, 120, 16, 16, 2
        features = rng.standard_normal((n, t_len, n_in))
        targets = rng.standard_normal((n, t_len, n_out))
        w1 = rng.standard_normal((n, hidden, n_in))
        w2 = rng.standard_normal((n, n_out, hidden))
        b1 = rng.standard_normal((n, hidden))
        b2 = rng.standard_normal((n, n_out))
        orders = np.stack([[rng.permutation(t_len) for _ in range(3)]
                           for _ in range(n)])
        networks = []
        for i in range(n):
            first, second = Dense(n_in, hidden), Dense(hidden, n_out)
            for layer, weight, bias in ((first, w1, b1),
                                        (second, w2, b2)):
                layer.weight, layer.bias = weight[i].copy(), bias[i].copy()
                layer.grad_weight = np.zeros_like(layer.weight)
                layer.grad_bias = np.zeros_like(layer.bias)
            network = Network([first, Tanh(), second],
                              input_shape=(n_in,))
            replay = _ReplayPermutations(orders[i])
            sgd_train(network, features[i], targets[i], replay,
                      epochs=3, batch_size=32, learning_rate=0.05)
            networks.append(network)
        sgd_train_batch(w1, b1, w2, b2, features, targets, orders,
                        batch_size=32, learning_rate=0.05)
        for i, network in enumerate(networks):
            first, _, second = network.layers
            assert np.array_equal(w1[i], first.weight)
            assert np.array_equal(b1[i], first.bias)
            assert np.array_equal(w2[i], second.weight)
            assert np.array_equal(b2[i], second.bias)


class _ReplayPermutations:
    """Stands in for the shuffling generator: hands out fixed orders."""

    def __init__(self, orders: np.ndarray) -> None:
        self._orders = iter(orders)

    def permutation(self, n: int) -> np.ndarray:
        order = next(self._orders)
        assert len(order) == n
        return order


def calibration_chunks(spec: CohortSpec):
    """Random calibration data for ``spec``'s sessions, encoded in
    engine chunks: ``(velocity, [(first, states, observations), …])``."""
    rng = seeded_rng(cohort_seed(BASE_SEED, spec.name))
    n, t_len = spec.n_sessions, spec.train_timesteps
    angles = rng.uniform(0, 2 * np.pi, (n, spec.n_channels))
    preferred = np.stack([np.cos(angles), np.sin(angles)], axis=2)
    velocity = 0.3 * rng.standard_normal((n, t_len, 2))
    return velocity, list(_calibration_chunks(spec, preferred, velocity,
                                              rng))

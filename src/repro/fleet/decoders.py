"""Decoder construction, batched calibration and batched stepping.

A cohort calibrates all its sessions in chunks of stacked arrays
(:func:`calibrate_batch`) and steps them through one batched decode
per control window:

* Kalman — :func:`repro.decoders.kalman.fit_batch`, then the
  per-window decode from the reset state collapses to a constant
  affine operator per session
  (:func:`repro.decoders.kalman.closed_loop_gain_batch`);
* Wiener — :func:`repro.decoders.wiener.fit_batch`, then one
  zero-history design row per session applied by
  :func:`repro.decoders.wiener.decode_step_batch`;
* DNN — each session's initial weights and minibatch orders drawn from
  its own derived stream, trained by
  :func:`repro.dnn.train.sgd_train_batch`, and the ``Dense → Tanh →
  Dense`` forward replayed through batched matmuls.

Every batched fit is bitwise equal, slice by slice, to the scalar fit
of that session's data, so the scalar decoders stay the oracle of the
whole cohort (``tests/fleet/test_parity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.decoders import kalman, wiener
from repro.decoders.dnn_decoder import DnnDecoder
from repro.dnn.layers import Dense, Tanh
from repro.dnn.network import Network
from repro.dnn.train import sgd_train_batch
from repro.fleet.spec import CohortSpec
from repro.seeds import derive_stream_seed, seeded_rng

__all__ = ["DnnCursorDecoder", "make_session_decoder", "calibrate_batch"]

#: Minibatch size and SGD step of the fleet's DNN readout, for the
#: scalar adapter and the batched calibration alike.
DNN_BATCH_SIZE = 32
DNN_LEARNING_RATE = 0.05


class DnnCursorDecoder:
    """Session-protocol adapter around :class:`DnnDecoder`.

    The closed-loop session calls ``fit(states, observations)`` with no
    generator, but a DNN needs one for initialization and minibatch
    order — so the adapter carries its own derived seed and builds a
    fresh ``Dense → Tanh → Dense`` velocity readout at fit time.  The
    fleet's batched calibration draws from the same per-session seed in
    the same order, which keeps a DNN cohort bit-exact against
    ``run_closed_loop_session`` driving this adapter.
    """

    def __init__(self, seed: int | None = None, hidden: int = 16,
                 epochs: int = 3, batch_size: int = DNN_BATCH_SIZE,
                 learning_rate: float = DNN_LEARNING_RATE) -> None:
        self.seed = seed
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self._decoder: DnnDecoder | None = None

    @property
    def fitted(self) -> bool:
        return self._decoder is not None and self._decoder.fitted

    def fit(self, states: np.ndarray, observations: np.ndarray) -> None:
        """Build and train the readout network on calibration data."""
        states = np.asarray(states, dtype=float)
        observations = np.asarray(observations, dtype=float)
        n_features = observations.shape[1]
        n_states = states.shape[1]
        rng = seeded_rng(self.seed)
        network = Network(
            [Dense(n_features, self.hidden, rng=rng), Tanh(),
             Dense(self.hidden, n_states, rng=rng)],
            input_shape=(n_features,), name="fleet_mlp")
        self._decoder = DnnDecoder(network, epochs=self.epochs,
                                   batch_size=self.batch_size,
                                   learning_rate=self.learning_rate)
        self._decoder.fit(observations, states, rng)

    def decode(self, observations: np.ndarray) -> np.ndarray:
        if self._decoder is None:
            raise RuntimeError("decoder must be fitted before decoding")
        return self._decoder.decode(observations)


def make_session_decoder(spec: CohortSpec, cohort_seed: int | None,
                         index: int):
    """A fresh, unfitted scalar decoder for session ``index`` of a
    cohort: the model the batched calibration must reproduce (the DNN
    family derives a per-session substream from the cohort seed; the
    linear families are fully determined by the calibration data).
    """
    if spec.decoder == "kalman":
        return kalman.KalmanFilterDecoder()
    if spec.decoder == "wiener":
        return wiener.WienerFilterDecoder(n_lags=spec.n_lags)
    if spec.decoder == "dnn":
        return DnnCursorDecoder(seed=_dnn_seed(cohort_seed, index),
                                hidden=spec.hidden,
                                epochs=spec.epochs)
    raise ValueError(f"unknown decoder family {spec.decoder!r}")


def _dnn_seed(cohort_seed: int | None, index: int) -> int | None:
    """Session ``index``'s private DNN stream seed."""
    return derive_stream_seed(cohort_seed, "dnn", str(index))


def _fit_kalman(spec: CohortSpec, cohort_seed: int | None, first: int,
                states: np.ndarray, observations: np.ndarray):
    return kalman.closed_loop_gain_batch(
        *kalman.fit_batch(states, observations))


def _fit_wiener(spec: CohortSpec, cohort_seed: int | None, first: int,
                states: np.ndarray, observations: np.ndarray):
    return (wiener.fit_batch(states, observations, spec.n_lags),)


def _fit_dnn(spec: CohortSpec, cohort_seed: int | None, first: int,
             states: np.ndarray, observations: np.ndarray):
    """Draw each session's layer-1 weights, layer-2 weights and one
    permutation per epoch from its own stream, in the order
    :meth:`DnnCursorDecoder.fit` draws them, then train the chunk in
    lockstep."""
    n, t_len, n_features = observations.shape
    n_states = states.shape[2]
    w1 = np.empty((n, spec.hidden, n_features))
    w2 = np.empty((n, n_states, spec.hidden))
    orders = np.empty((n, spec.epochs, t_len), dtype=np.intp)
    for row in range(n):
        rng = seeded_rng(_dnn_seed(cohort_seed, first + row))
        w1[row] = Dense(n_features, spec.hidden, rng=rng).weight
        w2[row] = Dense(spec.hidden, n_states, rng=rng).weight
        for epoch in range(spec.epochs):
            orders[row, epoch] = rng.permutation(t_len)
    b1 = np.zeros((n, spec.hidden))
    b2 = np.zeros((n, n_states))
    sgd_train_batch(w1, b1, w2, b2, observations, states, orders,
                    DNN_BATCH_SIZE, DNN_LEARNING_RATE)
    return w1, b1, w2, b2


class _KalmanBatch:
    """Stacked closed-loop Kalman stepping (constant affine operator)."""

    def __init__(self, gain: np.ndarray, x_prior: np.ndarray,
                 hx_prior: np.ndarray) -> None:
        self.gain, self.x_prior, self.hx_prior = gain, x_prior, hx_prior

    def decode(self, features: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        innovation = (features - self.hx_prior[idx])[:, :, None]
        return self.x_prior[idx] + np.matmul(self.gain[idx],
                                             innovation)[:, :, 0]


class _WienerBatch:
    """Stacked zero-history Wiener stepping."""

    def __init__(self, weights: np.ndarray) -> None:
        self.weights = weights

    def decode(self, features: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        # A readout has n_lags * m + 1 rows for m features per window.
        n_lags = (self.weights.shape[1] - 1) // features.shape[1]
        return wiener.decode_step_batch(self.weights[idx], features,
                                        n_lags)


class _DnnBatch:
    """Stacked ``Dense → Tanh → Dense`` forward (batched matmuls)."""

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                 b2: np.ndarray) -> None:
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    def decode(self, features: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        hidden = np.tanh(
            np.matmul(features[:, None, :],
                      np.swapaxes(self.w1[idx], 1, 2))
            + self.b1[idx][:, None, :])
        return (np.matmul(hidden, np.swapaxes(self.w2[idx], 1, 2))
                + self.b2[idx][:, None, :])[:, 0, :]


#: Per family: the chunk fit and the batched stepper its stacks build.
_FAMILIES = {
    "kalman": (_fit_kalman, _KalmanBatch),
    "wiener": (_fit_wiener, _WienerBatch),
    "dnn": (_fit_dnn, _DnnBatch),
}


def calibrate_batch(spec: CohortSpec, cohort_seed: int | None, chunks):
    """Fit every session of a cohort, chunk by chunk, into one batched
    stepper.

    ``chunks`` yields ``(first, states, observations)``: the calibration
    data of sessions ``first .. first + len(states)`` as (S, T, k) and
    (S, T, m) blocks, in session order.  The returned object exposes
    ``decode(features, idx) -> (len(idx), k)`` where ``features`` holds
    one window for each *active* session and ``idx`` selects those
    sessions' models from the stacks.
    """
    fit, batch = _FAMILIES[spec.decoder]
    parts = [fit(spec, cohort_seed, first, states, observations)
             for first, states, observations in chunks]
    return batch(*(np.concatenate(column) for column in zip(*parts)))

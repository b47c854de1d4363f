"""Decoder construction and batched closed-loop stepping per family.

The fleet engine fits one decoder per session with the exact scalar
``fit`` paths (so a 1-session cohort matches the single-session oracle
bit-for-bit), then *stacks* the fitted models into ``(n_sessions, …)``
arrays and steps all sessions through one batched decode per control
window:

* Kalman — the per-window decode from the reset state collapses to a
  constant affine operator per session, precomputed by
  :func:`repro.decoders.kalman.closed_loop_gain_batch`;
* Wiener — one zero-history design row per session applied by
  :func:`repro.decoders.wiener.decode_step_batch`;
* DNN — per-layer weight stacks driven through batched matmuls and
  elementwise activations, replaying ``Dense``/``ReLU``/``Tanh``
  forward math slice-by-slice.
"""

from __future__ import annotations

import numpy as np

from repro.decoders.dnn_decoder import DnnDecoder
from repro.decoders.kalman import KalmanFilterDecoder, closed_loop_gain_batch
from repro.decoders.wiener import WienerFilterDecoder, decode_step_batch
from repro.dnn.layers import Dense, ReLU, Tanh
from repro.dnn.network import Network
from repro.fleet.spec import CohortSpec
from repro.obs.manifest import seeded_rng
from repro.seeds import derive_stream_seed

__all__ = ["DnnCursorDecoder", "make_session_decoder",
           "make_batch_decoder"]


class DnnCursorDecoder:
    """Session-protocol adapter around :class:`DnnDecoder`.

    The closed-loop session calls ``fit(states, observations)`` with no
    generator, but a DNN needs one for initialization and minibatch
    order — so the adapter carries its own derived seed and builds a
    fresh ``Dense → Tanh → Dense`` velocity readout at fit time.  Both
    the fleet engine and the single-session parity oracle construct it
    through :func:`make_session_decoder`, which is what keeps the DNN
    cohort bit-exact against ``run_closed_loop_session``.
    """

    def __init__(self, seed: int | None = None, hidden: int = 16,
                 epochs: int = 3, batch_size: int = 32,
                 learning_rate: float = 0.05) -> None:
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
    """A fresh, unfitted decoder for session ``index`` of a cohort.

    Shared between the fleet engine and the parity tests so both sides
    of the oracle comparison hold the identical model (the DNN family
    derives a per-session substream from the cohort seed; the linear
    families are fully determined by the calibration data).
    """
    if spec.decoder == "kalman":
        return KalmanFilterDecoder()
    if spec.decoder == "wiener":
        return WienerFilterDecoder(n_lags=spec.n_lags)
    if spec.decoder == "dnn":
        seed = derive_stream_seed(cohort_seed, "dnn", str(index))
        return DnnCursorDecoder(seed=seed, hidden=spec.hidden,
                                epochs=spec.epochs)
    raise ValueError(f"unknown decoder family {spec.decoder!r}")


class _KalmanBatch:
    """Stacked closed-loop Kalman stepping (constant affine operator)."""

    def __init__(self, decoders) -> None:
        a = np.stack([decoder.A for decoder in decoders])
        w = np.stack([decoder.W for decoder in decoders])
        h = np.stack([decoder.H for decoder in decoders])
        q = np.stack([decoder.Q for decoder in decoders])
        self.gain, self.x_prior, self.hx_prior = closed_loop_gain_batch(
            a, w, h, q)

    def decode(self, features: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        innovation = (features - self.hx_prior[idx])[:, :, None]
        return self.x_prior[idx] + np.matmul(self.gain[idx],
                                             innovation)[:, :, 0]


class _WienerBatch:
    """Stacked zero-history Wiener stepping."""

    def __init__(self, decoders, n_lags: int) -> None:
        self.weights = np.stack([decoder.weights
                                 for decoder in decoders])
        self.n_lags = n_lags

    def decode(self, features: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        return decode_step_batch(self.weights[idx], features,
                                 self.n_lags)


class _DnnBatch:
    """Stacked per-layer MLP forward (batched matmul per Dense)."""

    def __init__(self, decoders) -> None:
        layers = decoders[0]._decoder.network.layers
        plan = []
        for position, layer in enumerate(layers):
            if isinstance(layer, Dense):
                weight = np.stack(
                    [decoder._decoder.network.layers[position].weight
                     for decoder in decoders])
                bias = np.stack(
                    [decoder._decoder.network.layers[position].bias
                     for decoder in decoders])
                plan.append(("dense", weight, bias))
            elif isinstance(layer, ReLU):
                plan.append(("relu", None, None))
            elif isinstance(layer, Tanh):
                plan.append(("tanh", None, None))
            else:
                raise TypeError(
                    f"cannot batch layer {type(layer).__name__}; the "
                    "fleet DNN path supports Dense/ReLU/Tanh stacks")
        self.plan = plan

    def decode(self, features: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        x = features[:, None, :]
        for kind, weight, bias in self.plan:
            if kind == "dense":
                x = (np.matmul(x, np.swapaxes(weight[idx], 1, 2))
                     + bias[idx][:, None, :])
            elif kind == "relu":
                x = np.where(x > 0, x, 0.0)
            else:
                x = np.tanh(x)
        return x[:, 0, :]


def make_batch_decoder(spec: CohortSpec, decoders):
    """Stack per-session fitted decoders into one batched stepper.

    The returned object exposes ``decode(features, idx) -> (len(idx),
    k)`` where ``features`` holds one window for each *active* session
    and ``idx`` selects those sessions' models from the stacks.
    """
    if spec.decoder == "kalman":
        return _KalmanBatch(decoders)
    if spec.decoder == "wiener":
        return _WienerBatch(decoders, spec.n_lags)
    if spec.decoder == "dnn":
        return _DnnBatch(decoders)
    raise ValueError(f"unknown decoder family {spec.decoder!r}")

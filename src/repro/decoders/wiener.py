"""Wiener-filter (regularized linear regression with lags) decoder.

The other traditional BCI decoder the paper cites (Section 2.3): the state
at time t is a linear readout of the last ``n_lags`` feature frames.  No
dynamics model — just ridge regression on a lag-embedded design matrix.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import inc
from repro.obs.trace import span


class WienerFilterDecoder:
    """Lagged linear decoder.

    Args:
        n_lags: number of past feature frames (including current) used per
            prediction.
        regularization: ridge coefficient.
    """

    def __init__(self, n_lags: int = 5, regularization: float = 1e-3) -> None:
        if n_lags < 1:
            raise ValueError("need at least one lag (the current frame)")
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        self.n_lags = n_lags
        self.regularization = regularization
        self.weights: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        """True after :meth:`fit`."""
        return self.weights is not None

    def fit(self, states: np.ndarray, observations: np.ndarray) -> None:
        """Fit readout weights by ridge regression.

        Raises:
            ValueError: on mismatched or insufficient data.
        """
        states = np.asarray(states, dtype=float)
        observations = np.asarray(observations, dtype=float)
        if len(states) != len(observations):
            raise ValueError("states and observations must align in time")
        if len(states) <= self.n_lags:
            raise ValueError("need more timesteps than lags")
        with span("decoders.wiener.fit", timesteps=len(states),
                  n_lags=self.n_lags):
            self.weights = _ridge_readout(
                _embed(observations, self.n_lags), states,
                self.regularization)

    def decode(self, observations: np.ndarray) -> np.ndarray:
        """Predict states for a feature sequence.

        Raises:
            RuntimeError: if called before :meth:`fit`.
        """
        if not self.fitted:
            raise RuntimeError("decoder must be fitted before decoding")
        observations = np.asarray(observations, dtype=float)
        inc("decoders.wiener_steps", len(observations))
        with span("decoders.wiener.decode",
                  timesteps=len(observations)):
            return _embed(observations, self.n_lags) @ self.weights

    def score(self, states: np.ndarray, observations: np.ndarray) -> float:
        """Mean per-dimension correlation between truth and prediction."""
        decoded = self.decode(observations)
        states = np.asarray(states, dtype=float)
        correlations = []
        for dim in range(states.shape[1]):
            truth, est = states[:, dim], decoded[:, dim]
            if np.std(truth) == 0 or np.std(est) == 0:
                correlations.append(0.0)
            else:
                correlations.append(float(np.corrcoef(truth, est)[0, 1]))
        return float(np.mean(correlations))


def decode_step_batch(weights: np.ndarray, features: np.ndarray,
                      n_lags: int) -> np.ndarray:
    """Batched single-window Wiener decode over a stack of sessions.

    The closed-loop session decodes each feature window in isolation
    (``decode(feature[None, :])``), so the lag history is always the
    zero padding: the design row is ``[0 … 0, feature, 1.0]``.  This
    applies that row to every session's readout in one batched matmul,
    bit-for-bit equal to the scalar per-session decode (the (1, D) @
    (D, k) product runs the same BLAS kernel per slice).

    Args:
        weights: (n, n_lags * m + 1, k) stacked fitted readouts.
        features: (n, m) one feature window per session.
        n_lags: lag count the readouts were fitted with.

    Returns:
        (n, k) decoded states.
    """
    weights = np.asarray(weights, dtype=float)
    features = np.asarray(features, dtype=float)
    n, m = features.shape
    design = np.zeros((n, 1, weights.shape[1]))
    design[:, 0, (n_lags - 1) * m:-1] = features
    design[:, 0, -1] = 1.0
    return np.matmul(design, weights)[:, 0, :]


def fit_batch(states: np.ndarray, observations: np.ndarray,
              n_lags: int, regularization: float = 1e-3) -> np.ndarray:
    """:meth:`WienerFilterDecoder.fit` for a stack of sessions at once.

    Each (S, …) slice is bitwise equal to the scalar fit of its own
    data: the design rows are the same values, and the Gram products
    and the ridge solve run the scalar BLAS and LAPACK kernels per
    slice.

    Args:
        states: (S, T, k) targets per session.
        observations: (S, T, m) features per session.
        n_lags / regularization: as for the scalar decoder.

    Returns:
        (S, n_lags * m + 1, k) readout weights.
    """
    return _ridge_readout(_embed(observations, n_lags), states,
                          regularization)


def _embed(observations: np.ndarray, n_lags: int) -> np.ndarray:
    """Lag-embed (…, T, m) features: row t holds frames
    t-n_lags+1 .. t plus a bias term.

    Early rows use zero padding for missing history.  Row t is a window
    of ``n_lags * m`` values starting at flat offset ``t * m`` of the
    padded block, so one strided view and one copy build the design.
    """
    *lead, t_len, m = observations.shape
    padded = np.zeros((*lead, t_len + n_lags - 1, m))
    padded[..., n_lags - 1:, :] = observations
    windows = np.lib.stride_tricks.sliding_window_view(
        padded.reshape(*lead, -1), n_lags * m, axis=-1)[..., ::m, :]
    design = np.empty((*lead, t_len, n_lags * m + 1))
    design[..., :-1] = windows
    design[..., -1] = 1.0
    return design


def _ridge_readout(design: np.ndarray, states: np.ndarray,
                   ridge: float) -> np.ndarray:
    """Ridge solve of ``design @ weights = states`` (either may carry
    a leading session axis)."""
    design_t = np.swapaxes(design, -1, -2)
    gram = np.matmul(design_t, design) + ridge * np.eye(design.shape[-1])
    return np.linalg.solve(gram, np.matmul(design_t, states))


#: Batched fit -> the scalar method it must match bit for bit
#: (tests/fleet/test_parity.py).
PARITY_ORACLES = {
    "fit_batch": "fit",
}

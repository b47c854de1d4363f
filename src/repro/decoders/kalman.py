"""Kalman-filter neural decoder (Wu et al., NeurIPS 2002).

The classic BCI cursor decoder: latent kinematics x_t follow a linear
dynamical system, neural features y_t are a linear observation of them.

    x_t = A x_{t-1} + w,   w ~ N(0, W)
    y_t = H x_t     + q,   q ~ N(0, Q)

``fit`` estimates (A, W, H, Q) by least squares from training pairs;
``decode`` runs the standard predict/update recursion.  This is the
paper's "traditional algorithm" baseline (Section 2.3) against which the
DNN workloads are positioned.
"""

from __future__ import annotations

import numpy as np


class KalmanFilterDecoder:
    """Linear-Gaussian decoder for continuous kinematics.

    Attributes populated by :meth:`fit`:
        A: (k, k) state transition.
        W: (k, k) process noise covariance.
        H: (m, k) observation matrix.
        Q: (m, m) observation noise covariance.
    """

    def __init__(self, regularization: float = 1e-6) -> None:
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        self.regularization = regularization
        self.A: np.ndarray | None = None
        self.W: np.ndarray | None = None
        self.H: np.ndarray | None = None
        self.Q: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        """True after a successful :meth:`fit`."""
        return self.A is not None

    def fit(self, states: np.ndarray, observations: np.ndarray) -> None:
        """Estimate model matrices from aligned training data.

        Args:
            states: (T, k) latent kinematics (e.g. cursor velocity).
            observations: (T, m) neural features.

        Raises:
            ValueError: on mismatched or insufficient data.
        """
        states = np.asarray(states, dtype=float)
        observations = np.asarray(observations, dtype=float)
        if states.ndim != 2 or observations.ndim != 2:
            raise ValueError("states and observations must be 2-D")
        if len(states) != len(observations):
            raise ValueError("states and observations must align in time")
        if len(states) < 3:
            raise ValueError("need at least 3 timesteps to fit dynamics")

        x_prev, x_next = states[:-1], states[1:]
        self.A = _lstsq(x_prev, x_next, self.regularization).T
        resid_w = x_next - x_prev @ self.A.T
        self.W = _covariance(resid_w, self.regularization)

        self.H = _lstsq(states, observations, self.regularization).T
        resid_q = observations - states @ self.H.T
        self.Q = _covariance(resid_q, self.regularization)

    def decode(self, observations: np.ndarray,
               initial_state: np.ndarray | None = None) -> np.ndarray:
        """Run the filter over a feature sequence.

        Args:
            observations: (T, m) neural features.
            initial_state: (k,) prior mean; zeros if omitted.

        Returns:
            (T, k) posterior state means.

        Raises:
            RuntimeError: if called before :meth:`fit`.
        """
        if not self.fitted:
            raise RuntimeError("decoder must be fitted before decoding")
        observations = np.asarray(observations, dtype=float)
        k = self.A.shape[0]
        x = np.zeros(k) if initial_state is None else np.asarray(
            initial_state, dtype=float)
        p = np.eye(k)
        decoded = np.empty((len(observations), k))
        identity = np.eye(k)
        for t, y in enumerate(observations):
            # Predict.
            x = self.A @ x
            p = self.A @ p @ self.A.T + self.W
            # Update.
            s = self.H @ p @ self.H.T + self.Q
            gain = p @ self.H.T @ np.linalg.solve(
                s, np.eye(s.shape[0]))
            x = x + gain @ (y - self.H @ x)
            p = (identity - gain @ self.H) @ p
            decoded[t] = x
        return decoded

    def score(self, states: np.ndarray, observations: np.ndarray) -> float:
        """Mean correlation across state dimensions between truth and
        decoded trajectories (the standard BCI decoding metric)."""
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


def fit_batch(states: np.ndarray, observations: np.ndarray,
              regularization: float = 1e-6):
    """:meth:`KalmanFilterDecoder.fit` for a stack of sessions at once.

    Each session slice is bitwise equal to the scalar fit of its own
    data: the Gram products and solves below are the scalar ones,
    batched (the slices run the same BLAS and LAPACK kernels).

    Args:
        states: (S, T, k) latent kinematics per session.
        observations: (S, T, m) neural features per session.
        regularization: ridge coefficient, as for the scalar decoder.

    Returns:
        ``(A, W, H, Q)`` stacks, contiguous, with shapes (S, k, k),
        (S, k, k), (S, m, k) and (S, m, m).
    """
    x_prev, x_next = states[:, :-1], states[:, 1:]
    a_t = _lstsq(x_prev, x_next, regularization)
    w = _covariance(x_next - np.matmul(x_prev, a_t), regularization)
    h_t = _lstsq(states, observations, regularization)
    q = _covariance(observations - np.matmul(states, h_t),
                    regularization)
    return (np.ascontiguousarray(np.swapaxes(a_t, 1, 2)), w,
            np.ascontiguousarray(np.swapaxes(h_t, 1, 2)), q)


def closed_loop_gain_batch(a: np.ndarray, w: np.ndarray,
                           h: np.ndarray, q: np.ndarray):
    """Batched one-step closed-loop Kalman operator over sessions.

    The closed-loop session decodes each feature window with a *fresh*
    :meth:`KalmanFilterDecoder.decode` call (``x = 0``, ``P = I``), so
    the per-window command is an affine function of the feature that
    is constant across the session.  This precomputes that operator
    for a stack of fitted models: decoding observation ``y`` of
    session ``i`` is then

        ``x_prior[i] + gain[i] @ (y - hx_prior[i])``

    bit-for-bit equal to the scalar decode of a 1-row input, because
    every matrix product below replays the scalar operation sequence
    per session slice (batched ``matmul``/``solve`` run the same BLAS
    and LAPACK kernels slice-by-slice).

    Args:
        a: (n, k, k) state transitions.
        w: (n, k, k) process noise covariances.
        h: (n, m, k) observation matrices.
        q: (n, m, m) observation noise covariances.

    Returns:
        ``(gain, x_prior, hx_prior)`` with shapes (n, k, m), (n, k),
        and (n, m).
    """
    a = np.asarray(a, dtype=float)
    h = np.asarray(h, dtype=float)
    k = a.shape[1]
    m = h.shape[1]
    # Predict from the reset state, replaying the scalar op order:
    # x = A @ 0, P = (A @ I) @ A.T + W.
    x0 = np.matmul(a, np.zeros((k, 1)))
    p = np.matmul(np.matmul(a, np.eye(k)), np.swapaxes(a, 1, 2)) + w
    s = np.matmul(np.matmul(h, p), np.swapaxes(h, 1, 2)) + q
    gain = np.matmul(np.matmul(p, np.swapaxes(h, 1, 2)),
                     np.linalg.solve(s, np.eye(m)))
    return gain, x0[:, :, 0], np.matmul(h, x0)[:, :, 0]


def _lstsq(x: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """Ridge-regularized least squares solve of x @ B = y (x and y may
    carry a leading session axis)."""
    x_t = np.swapaxes(x, -1, -2)
    gram = np.matmul(x_t, x) + ridge * np.eye(x.shape[-1])
    return np.linalg.solve(gram, np.matmul(x_t, y))


def _covariance(residuals: np.ndarray, ridge: float) -> np.ndarray:
    cov = (np.matmul(np.swapaxes(residuals, -1, -2), residuals)
           / max(1, residuals.shape[-2] - 1))
    return cov + ridge * np.eye(cov.shape[-1])


#: Batched fit -> the scalar method it must match bit for bit
#: (tests/fleet/test_parity.py).
PARITY_ORACLES = {
    "fit_batch": "fit",
}

"""Minimal SGD training loop for the NumPy networks.

The MINDFUL analysis never trains — it consumes layer shapes — but the
fleet's DNN cohorts (:mod:`repro.decoders.dnn_decoder`) fit small networks
on synthetic data.  Mean-squared error plus plain mini-batch SGD is
sufficient for that purpose.
"""

from __future__ import annotations

import numpy as np

from repro.dnn.network import Network


def mse_loss(prediction: np.ndarray,
             target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean-squared-error loss and its gradient w.r.t. the prediction.

    Returns:
        (loss value, gradient array of the same shape as prediction).
    """
    if prediction.shape != target.shape:
        raise ValueError(
            f"shape mismatch: {prediction.shape} vs {target.shape}")
    diff = prediction - target
    loss = float(np.mean(diff ** 2))
    grad = 2.0 * diff / diff.size
    return loss, grad


def sgd_step(network: Network, learning_rate: float) -> None:
    """Apply one gradient step to all materialized parameters."""
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    for layer in network.layers:
        for param, grad in zip(layer.parameters, layer.gradients):
            param -= learning_rate * grad


def sgd_train(network: Network,
              features: np.ndarray,
              targets: np.ndarray,
              rng: np.random.Generator,
              epochs: int = 10,
              batch_size: int = 32,
              learning_rate: float = 0.05) -> list[float]:
    """Train a network with mini-batch SGD on MSE.

    Args:
        network: a *materialized* network (layers built with an rng).
        features: (n_samples, *input_shape) inputs.
        targets: (n_samples, *output_shape) regression targets.
        rng: shuffling generator.
        epochs: passes over the data.
        batch_size: mini-batch size.
        learning_rate: SGD step size.

    Returns:
        Mean epoch losses, one per epoch.

    Raises:
        ValueError: on mismatched sample counts or empty data.
    """
    if len(features) != len(targets):
        raise ValueError("features and targets must have equal length")
    if len(features) == 0:
        raise ValueError("cannot train on empty data")
    n = len(features)
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            network.zero_gradients()
            prediction = network.forward(features[idx])
            loss, grad = mse_loss(prediction, targets[idx])
            network.backward(grad)
            sgd_step(network, learning_rate)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return history


def sgd_train_batch(w1: np.ndarray, b1: np.ndarray,
                    w2: np.ndarray, b2: np.ndarray,
                    features: np.ndarray, targets: np.ndarray,
                    orders: np.ndarray, batch_size: int,
                    learning_rate: float) -> None:
    """Train a stack of ``Dense → Tanh → Dense`` regressors in lockstep.

    Slice ``s`` goes through exactly the updates :func:`sgd_train`
    applies to ``Network([Dense, Tanh(), Dense])`` holding ``w1[s]``,
    ``b1[s]``, ``w2[s]`` and ``b2[s]``, with ``orders[s, e]`` as the
    permutation of epoch ``e``: every product is a batched ``matmul``
    whose slices are the scalar operands (contiguous, or a ``swapaxes``
    view where the layer uses ``.T``), so each slice runs the scalar
    BLAS kernel and the weights come out bitwise equal.  The
    parameters are updated in place.

    Args:
        w1, b1: (S, hidden, in) and (S, hidden) first-layer parameters.
        w2, b2: (S, out, hidden) and (S, out) readout parameters.
        features: (S, n_samples, in) inputs.
        targets: (S, n_samples, out) regression targets.
        orders: (S, epochs, n_samples) minibatch order per epoch.
        batch_size / learning_rate: as for :func:`sgd_train`.
    """
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    rows = np.arange(len(orders))[:, None]
    grad_w1, grad_b1 = np.empty_like(w1), np.empty_like(b1)
    grad_w2, grad_b2 = np.empty_like(w2), np.empty_like(b2)
    n_samples = orders.shape[2]
    for epoch in range(orders.shape[1]):
        for start in range(0, n_samples, batch_size):
            idx = orders[:, epoch, start:start + batch_size]
            x = features[rows, idx]
            hidden = np.tanh(np.matmul(x, np.swapaxes(w1, 1, 2))
                             + b1[:, None, :])
            prediction = (np.matmul(hidden, np.swapaxes(w2, 1, 2))
                          + b2[:, None, :])
            # mse_loss's gradient, one minibatch per slice.
            diff = prediction - targets[rows, idx]
            grad = 2.0 * diff / (diff.shape[1] * diff.shape[2])
            # Backward as Network.zero_gradients + Layer.backward:
            # zero, then accumulate.
            grad_w2[...] = 0.0
            grad_w2 += np.matmul(np.swapaxes(grad, 1, 2), hidden)
            grad_b2[...] = 0.0
            grad_b2 += grad.sum(axis=1)
            grad = np.matmul(grad, w2) * (1.0 - hidden ** 2)
            grad_w1[...] = 0.0
            grad_w1 += np.matmul(np.swapaxes(grad, 1, 2), x)
            grad_b1[...] = 0.0
            grad_b1 += grad.sum(axis=1)
            for param, step in ((w1, grad_w1), (b1, grad_b1),
                                (w2, grad_w2), (b2, grad_b2)):
                param -= learning_rate * step


#: Batched trainer -> the scalar loop it must match bit for bit
#: (tests/fleet/test_parity.py).
PARITY_ORACLES = {
    "sgd_train_batch": "sgd_train",
}

"""Minimal SGD training loop for the NumPy networks.

The MINDFUL analysis never trains — it consumes layer shapes — but the
example applications demonstrate the substrate end-to-end by fitting small
instances of the speech workloads on synthetic data.  Mean-squared error
plus plain mini-batch SGD is sufficient for that purpose.
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


def cross_entropy_loss(probabilities: np.ndarray,
                       labels: np.ndarray,
                       eps: float = 1e-12) -> tuple[float, np.ndarray]:
    """Categorical cross-entropy over softmax outputs.

    Args:
        probabilities: (batch, n_classes) softmax outputs.
        labels: integer class labels of shape (batch,) or one-hot rows of
            shape (batch, n_classes).
        eps: numerical floor inside the log.

    Returns:
        (mean loss, gradient w.r.t. the probabilities).  When the network
        ends in a :class:`~repro.dnn.layers.Softmax`, back-propagating
        this gradient through it reproduces the classic (p - y)/batch.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.ndim != 2:
        raise ValueError("probabilities must be (batch, n_classes)")
    batch, n_classes = probabilities.shape
    labels = np.asarray(labels)
    if labels.ndim == 1:
        if labels.shape[0] != batch:
            raise ValueError("label count must match the batch")
        one_hot = np.zeros_like(probabilities)
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise ValueError("labels out of class range")
        one_hot[np.arange(batch), labels.astype(int)] = 1.0
    elif labels.shape == probabilities.shape:
        one_hot = labels.astype(float)
    else:
        raise ValueError("labels must be (batch,) ints or one-hot rows")
    clipped = np.clip(probabilities, eps, 1.0)
    loss = float(-np.sum(one_hot * np.log(clipped)) / batch)
    grad = -(one_hot / clipped) / batch
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

"""DNN decoder wrapper: trains a repro.dnn network as a drop-in decoder.

Gives the neural-network workloads the same fit/decode/score interface as
the Kalman and Wiener baselines so the fleet's cohorts can compare the
decoder families head-to-head on one dataset.
"""

from __future__ import annotations

import numpy as np

from repro.dnn.network import Network
from repro.dnn.train import sgd_train


class DnnDecoder:
    """Decoder facade over a materialized :class:`~repro.dnn.network.Network`.

    Args:
        network: a network whose compute layers were built with an rng.
        epochs / batch_size / learning_rate: training hyperparameters
            passed to :func:`repro.dnn.train.sgd_train`.
    """

    def __init__(self, network: Network, epochs: int = 20,
                 batch_size: int = 32, learning_rate: float = 0.05) -> None:
        self.network = network
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.history: list[float] = []

    @property
    def fitted(self) -> bool:
        """True after :meth:`fit` has run at least once."""
        return bool(self.history)

    def fit(self, features: np.ndarray, targets: np.ndarray,
            rng: np.random.Generator) -> list[float]:
        """Train the wrapped network; returns (and stores) the loss
        history."""
        self.history = sgd_train(self.network, features, targets, rng,
                                 epochs=self.epochs,
                                 batch_size=self.batch_size,
                                 learning_rate=self.learning_rate)
        return self.history

    def decode(self, features: np.ndarray) -> np.ndarray:
        """Forward pass over a feature batch."""
        return self.network.forward(np.asarray(features, dtype=float))

    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Mean per-dimension correlation between targets and predictions."""
        predictions = self.decode(features)
        targets = np.asarray(targets, dtype=float)
        correlations = []
        for dim in range(targets.shape[1]):
            truth, est = targets[:, dim], predictions[:, dim]
            if np.std(truth) == 0 or np.std(est) == 0:
                correlations.append(0.0)
            else:
                correlations.append(float(np.corrcoef(truth, est)[0, 1]))
        return float(np.mean(correlations))

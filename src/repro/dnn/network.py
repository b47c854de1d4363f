"""Sequential network container and the Eq. 10 fMAC function.

``fmac(network)`` walks the layer stack with shape inference and returns the
per-layer (MACseq, #MACop) lists of Eq. 10 — the interface the accelerator
scheduler (:mod:`repro.accel.schedule`) consumes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.dnn.layers import Layer
from repro.dnn.macs import LayerMacs
from repro.obs.metrics import inc, metrics_enabled
from repro.obs.trace import span


class NetworkProfile(NamedTuple):
    """What the analysis reads off a network, from one walk of its layer
    stack.

    Attributes:
        profiles: Eq. 10 MAC profiles of the compute layers, in order.
        sizes: output values after each compute layer — what a split
            there would transmit (Section 6.1).
        output_values: values per output sample (n_out of Eq. 8).
        total_macs: accumulate steps for one inference.
        n_parameters: trainable parameters ('model size').
    """

    profiles: tuple[LayerMacs, ...]
    sizes: tuple[int, ...]
    output_values: int
    total_macs: int
    n_parameters: int


class Network:
    """An ordered stack of layers with a fixed input shape.

    Args:
        layers: the layer sequence.
        input_shape: shape of one sample (no batch dimension), e.g.
            ``(512,)`` for a flat MLP input or ``(4, 1024)`` for conv input.
        name: display name used in reports.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...],
                 name: str = "network") -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.name = name
        self._total_macs: int | None = None
        # Validate shape compatibility eagerly so errors surface at build.
        self._shapes = [self.input_shape]
        for layer in self.layers:
            self._shapes.append(layer.output_shape(self._shapes[-1]))

    @property
    def output_shape(self) -> tuple[int, ...]:
        """Shape of one output sample."""
        return self._shapes[-1]

    @property
    def layer_input_shapes(self) -> list[tuple[int, ...]]:
        """Input shape seen by each layer."""
        return self._shapes[:-1]

    @property
    def output_values(self) -> int:
        """Number of scalar values per output sample (n_out of Eq. 8)."""
        return math.prod(self.output_shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run a batch through the network."""
        expected = (x.shape[0],) + self.input_shape
        if x.shape != expected:
            raise ValueError(
                f"{self.name} expects batches of shape {expected[1:]}, got "
                f"{x.shape[1:]}")
        if metrics_enabled():
            inc("dnn.forward_passes")
            inc("dnn.samples_processed", x.shape[0])
            inc("dnn.macs_executed", self.total_macs * x.shape[0])
        with span("dnn.forward", network=self.name, batch=x.shape[0]):
            for layer in self.layers:
                x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate a loss gradient through all layers."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def profile(self) -> NetworkProfile:
        """MAC profiles, split sizes, MACs and parameters in one walk.

        Activation/reshape layers carry no MAC work and are skipped: the
        paper's layer index i in Eq. 10-15 counts MAC layers.
        """
        profiles = []
        sizes = []
        total_macs = 0
        n_parameters = 0
        for layer, in_shape, out_shape in zip(self.layers, self._shapes,
                                              self._shapes[1:]):
            macs = layer.mac_profile(in_shape)
            if macs.is_compute:
                profiles.append(macs)
                sizes.append(math.prod(out_shape))
                total_macs += macs.total_macs
            n_parameters += layer.n_parameters
        return NetworkProfile(tuple(profiles), tuple(sizes),
                              self.output_values, total_macs, n_parameters)

    def mac_profiles(self) -> list[LayerMacs]:
        """Per-layer MAC profiles for *compute* layers only (Eq. 10)."""
        return list(self.profile().profiles)

    @property
    def total_macs(self) -> int:
        """Total accumulate steps for one inference (cached; the layer
        stack is fixed after construction)."""
        if self._total_macs is None:
            self._total_macs = self.profile().total_macs
        return self._total_macs

    @property
    def n_parameters(self) -> int:
        """Total trainable parameters (the paper's 'model size' proxy)."""
        return sum(layer.n_parameters for layer in self.layers)

    @property
    def n_compute_layers(self) -> int:
        """Number of MAC-bearing layers (N of Eq. 10)."""
        return len(self.profile().profiles)

    def tail(self, n_compute_layers: int,
             name: str | None = None) -> "Network":
        """The sub-network after the n-th compute layer — the wearable's
        share when the DNN is partitioned (Section 6.1).

        Complements :meth:`head`: ``head(i)`` and ``tail(i)`` compose back
        to the full network (the trailing activation of the head is the
        boundary; the tail starts at the next compute layer).

        Raises:
            ValueError: if the index is out of range or the tail would be
                empty.
        """
        if not 1 <= n_compute_layers < self.n_compute_layers:
            raise ValueError(
                f"tail split {n_compute_layers} outside "
                f"[1, {self.n_compute_layers - 1}]")
        head = self.head(n_compute_layers)
        start = len(head.layers)
        return Network(self.layers[start:], self._shapes[start],
                       name=name or f"{self.name}[{n_compute_layers}:]")

    def compute_layer_output_values(self) -> list[int]:
        """Output value counts after each compute layer.

        Entry i is the number of scalar values a split after the (i+1)-th
        compute layer would have to transmit — the quantity the DNN
        partitioning analysis (Section 6.1) compares against the
        1024-channel transceiver rate.
        """
        return list(self.profile().sizes)

    def zero_gradients(self) -> None:
        """Reset accumulated parameter gradients."""
        for layer in self.layers:
            for grad in layer.gradients:
                grad[...] = 0.0

    def head(self, n_compute_layers: int,
             name: str | None = None) -> "Network":
        """The sub-network up to and including the n-th compute layer.

        This is the on-implant part after DNN partitioning (Section 6.1):
        compute layer indices are 1-based; trailing non-compute layers
        (activations) attached to the chosen compute layer are included.

        Raises:
            ValueError: if the index is out of range.
        """
        if not 1 <= n_compute_layers <= self.n_compute_layers:
            raise ValueError(
                f"split index {n_compute_layers} outside "
                f"[1, {self.n_compute_layers}]")
        kept: list[Layer] = []
        seen = 0
        for layer, shape in zip(self.layers, self.layer_input_shapes):
            is_compute = layer.mac_profile(shape).is_compute
            if is_compute and seen == n_compute_layers:
                break
            kept.append(layer)
            if is_compute:
                seen += 1
        # Include any immediately following non-compute layers (activation).
        idx = len(kept)
        while idx < len(self.layers):
            layer = self.layers[idx]
            if layer.mac_profile(self._shapes[idx]).is_compute:
                break
            kept.append(layer)
            idx += 1
        return Network(kept, self.input_shape,
                       name=name or f"{self.name}[:{n_compute_layers}]")


def fmac(network: Network) -> tuple[list[int], list[int]]:
    """Eq. 10: ``[MACseq_i], [#MACop_i] = fMAC(n, DNN)``.

    Returns the two parallel lists for the network's compute layers.
    """
    profiles = network.mac_profiles()
    return ([p.mac_seq for p in profiles], [p.mac_ops for p in profiles])

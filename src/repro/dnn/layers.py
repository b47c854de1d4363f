"""Neural-network layers with forward/backward passes and MAC profiles.

Shape conventions:

* Dense operates on ``(batch, features)``.
* Conv1D / AvgPool1D operate on ``(batch, channels, length)``.
* Flatten bridges the two.

Every layer reports its :class:`~repro.dnn.macs.LayerMacs` profile given an
input shape, which is how :meth:`repro.dnn.network.Network.mac_profiles`
realizes Eq. 10 from actual architectures instead of hand-entered
constants.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.dnn.macs import NO_MACS, LayerMacs, fmac_conv1d, fmac_dense


class Layer(ABC):
    """Base class for all layers."""

    @abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output, caching what backward needs."""

    @abstractmethod
    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate the loss gradient, accumulating parameter gradients."""

    @abstractmethod
    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Output shape (excluding batch) for a given input shape."""

    def mac_profile(self, input_shape: tuple[int, ...]) -> LayerMacs:
        """MAC profile for a given input shape; default: no MAC work."""
        del input_shape
        return NO_MACS

    @property
    def parameters(self) -> list[np.ndarray]:
        """Trainable parameter arrays (empty for stateless layers)."""
        return []

    @property
    def gradients(self) -> list[np.ndarray]:
        """Gradients matching :attr:`parameters` order."""
        return []

    @property
    def n_parameters(self) -> int:
        """Total trainable scalar count."""
        return sum(p.size for p in self.parameters)


class Dense(Layer):
    """Fully connected layer: ``y = x @ W.T + b``.

    Args:
        in_features: input width.
        out_features: output width.
        rng: generator for He-style initialization; zeros if omitted
            (useful when the layer is only used for MAC accounting).
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None) -> None:
        _check_positive(in_features=in_features, out_features=out_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight: np.ndarray | None = None
        self.bias: np.ndarray | None = None
        self.grad_weight: np.ndarray | None = None
        self.grad_bias: np.ndarray | None = None
        if rng is not None:
            self.materialize(rng)
        self._x: np.ndarray | None = None

    def materialize(self, rng: np.random.Generator) -> None:
        """Allocate and He-initialize the weights.

        Layers built without an rng stay shape-only (zero memory), which is
        what the MINDFUL analysis uses — MAC accounting at n = 8192 channels
        would otherwise allocate multi-gigabyte matrices.
        """
        scale = np.sqrt(2.0 / self.in_features)
        self.weight = scale * rng.standard_normal(
            (self.out_features, self.in_features))
        self.bias = np.zeros(self.out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    @property
    def materialized(self) -> bool:
        """True once the weight arrays exist."""
        return self.weight is not None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.materialized:
            raise RuntimeError("Dense layer is shape-only; call "
                               "materialize(rng) before forward")
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects (batch, {self.in_features}), got {x.shape}")
        self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.grad_weight += grad.T @ self._x
        self.grad_bias += grad.sum(axis=0)
        return grad @ self.weight

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ValueError(
                f"Dense({self.in_features}->{self.out_features}) cannot take "
                f"input shape {input_shape}")
        return (self.out_features,)

    def mac_profile(self, input_shape: tuple[int, ...]) -> LayerMacs:
        self.output_shape(input_shape)
        return fmac_dense(self.in_features, self.out_features)

    @property
    def parameters(self) -> list[np.ndarray]:
        if not self.materialized:
            return []
        return [self.weight, self.bias]

    @property
    def gradients(self) -> list[np.ndarray]:
        if not self.materialized:
            return []
        return [self.grad_weight, self.grad_bias]

    @property
    def n_parameters(self) -> int:
        return self.in_features * self.out_features + self.out_features


def _scatter_cols(grad_cols: np.ndarray, padded_len: int) -> np.ndarray:
    """col2im fold: scatter-add column gradients back onto the input.

    Vectorized production path: each padded input position ``i``
    receives ``grad_cols[:, i - k, :, k]`` summed over tap ``k``.
    Padding the output-position axis by ``kernel_size - 1`` on each side
    turns those anti-diagonals into the main diagonals of length-``k``
    sliding windows (tap axis reversed), which one einsum reduces in the
    same ascending-``k`` order as the reference loop — the sums match
    it bit for bit (``tests/dnn/test_layers.py``).

    Args:
        grad_cols: (batch, out_len, in_channels, kernel_size) gradient
            w.r.t. the im2col columns.
        padded_len: padded input length ``out_len + kernel_size - 1``.

    Returns:
        (batch, in_channels, padded_len) gradient w.r.t. the padded
        input.
    """
    kernel_size = grad_cols.shape[-1]
    g = grad_cols.transpose(0, 2, 1, 3)  # (batch, ch, out_len, k)
    edge = kernel_size - 1
    padded = np.pad(g, ((0, 0), (0, 0), (edge, edge), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, kernel_size, axis=2)[..., ::-1]
    return np.einsum("bcimm->bci", windows)


def _scatter_cols_reference(grad_cols: np.ndarray,
                            padded_len: int) -> np.ndarray:
    """Original per-tap loop, kept as the parity oracle for
    :func:`_scatter_cols` (``tests/dnn/test_layers.py``)."""
    batch, out_len, in_channels, kernel_size = grad_cols.shape
    grad_x = np.zeros((batch, in_channels, padded_len))
    for k in range(kernel_size):
        grad_x[:, :, k:k + out_len] += grad_cols[:, :, :, k].transpose(
            0, 2, 1)
    return grad_x


class Conv1D(Layer):
    """1-D convolution with stride 1 via im2col.

    Args:
        in_channels: input channel count.
        out_channels: output channel count.
        kernel_size: receptive field length.
        padding: symmetric zero padding; ``kernel_size // 2`` keeps length
            for odd kernels.
        rng: generator for initialization (zeros if omitted).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 padding: int = 0,
                 rng: np.random.Generator | None = None) -> None:
        _check_positive(in_channels=in_channels, out_channels=out_channels,
                        kernel_size=kernel_size)
        if padding < 0:
            raise ValueError("padding must be non-negative")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.weight: np.ndarray | None = None
        self.bias: np.ndarray | None = None
        self.grad_weight: np.ndarray | None = None
        self.grad_bias: np.ndarray | None = None
        if rng is not None:
            self.materialize(rng)
        self._cols: np.ndarray | None = None
        self._in_length = 0

    def materialize(self, rng: np.random.Generator) -> None:
        """Allocate and He-initialize the kernels (see Dense.materialize)."""
        fan_in = self.in_channels * self.kernel_size
        self.weight = np.sqrt(2.0 / fan_in) * rng.standard_normal(
            (self.out_channels, self.in_channels, self.kernel_size))
        self.bias = np.zeros(self.out_channels)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    @property
    def materialized(self) -> bool:
        """True once the kernel arrays exist."""
        return self.weight is not None

    def _out_length(self, in_length: int) -> int:
        out = in_length + 2 * self.padding - self.kernel_size + 1
        if out <= 0:
            raise ValueError(
                f"kernel {self.kernel_size} too large for input length "
                f"{in_length} with padding {self.padding}")
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.materialized:
            raise RuntimeError("Conv1D layer is shape-only; call "
                               "materialize(rng) before forward")
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv1D expects (batch, {self.in_channels}, length), got "
                f"{x.shape}")
        batch, _, length = x.shape
        out_len = self._out_length(length)
        if self.padding:
            x = np.pad(x, ((0, 0), (0, 0), (self.padding, self.padding)))
        # im2col: (batch, out_len, in_ch * k)
        windows = np.lib.stride_tricks.sliding_window_view(
            x, self.kernel_size, axis=2)  # (batch, ch, out_len, k)
        cols = windows.transpose(0, 2, 1, 3).reshape(
            batch, out_len, self.in_channels * self.kernel_size)
        self._cols = cols
        self._in_length = length
        w = self.weight.reshape(self.out_channels, -1)
        out = cols @ w.T + self.bias  # (batch, out_len, out_ch)
        return out.transpose(0, 2, 1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None:
            raise RuntimeError("backward called before forward")
        batch, _, out_len = grad.shape
        g = grad.transpose(0, 2, 1)  # (batch, out_len, out_ch)
        w = self.weight.reshape(self.out_channels, -1)
        self.grad_weight += (
            g.reshape(-1, self.out_channels).T
            @ self._cols.reshape(-1, w.shape[1])
        ).reshape(self.weight.shape)
        self.grad_bias += g.sum(axis=(0, 1))
        grad_cols = g @ w  # (batch, out_len, in_ch * k)
        grad_cols = grad_cols.reshape(batch, out_len, self.in_channels,
                                      self.kernel_size)
        padded_len = self._in_length + 2 * self.padding
        grad_x = _scatter_cols(grad_cols, padded_len)
        if self.padding:
            grad_x = grad_x[:, :, self.padding:-self.padding]
        return grad_x

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 2 or input_shape[0] != self.in_channels:
            raise ValueError(
                f"Conv1D({self.in_channels}ch) cannot take input shape "
                f"{input_shape}")
        return (self.out_channels, self._out_length(input_shape[1]))

    def mac_profile(self, input_shape: tuple[int, ...]) -> LayerMacs:
        _, out_len = self.output_shape(input_shape)
        return fmac_conv1d(self.in_channels, self.out_channels,
                           self.kernel_size, out_len)

    @property
    def parameters(self) -> list[np.ndarray]:
        if not self.materialized:
            return []
        return [self.weight, self.bias]

    @property
    def gradients(self) -> list[np.ndarray]:
        if not self.materialized:
            return []
        return [self.grad_weight, self.grad_bias]

    @property
    def n_parameters(self) -> int:
        return (self.in_channels * self.out_channels * self.kernel_size
                + self.out_channels)


class ReLU(Layer):
    """Rectified linear activation (the PE's activation unit, Fig. 9)."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad * self._mask

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Tanh(Layer):
    """Hyperbolic-tangent activation (used by the regression heads)."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad * (1.0 - self._out ** 2)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Flatten(Layer):
    """Reshape (batch, channels, length) -> (batch, channels * length)."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad.reshape(self._shape)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        size = 1
        for dim in input_shape:
            size *= dim
        return (size,)


class AvgPool1D(Layer):
    """Non-overlapping average pooling along the length axis."""

    def __init__(self, pool_size: int) -> None:
        _check_positive(pool_size=pool_size)
        self.pool_size = pool_size
        self._in_length = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError("AvgPool1D expects (batch, channels, length)")
        batch, channels, length = x.shape
        if length % self.pool_size != 0:
            raise ValueError(
                f"length {length} not divisible by pool {self.pool_size}")
        self._in_length = length
        return x.reshape(batch, channels, length // self.pool_size,
                         self.pool_size).mean(axis=3)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        expanded = np.repeat(grad, self.pool_size, axis=2)
        return expanded / self.pool_size

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        channels, length = input_shape
        if length % self.pool_size != 0:
            raise ValueError(
                f"length {length} not divisible by pool {self.pool_size}")
        return (channels, length // self.pool_size)


def _check_positive(**values: int) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")

"""The paper's two BCI workloads: speech-synthesis MLP and DN-CNN.

Paper Section 5.3 evaluates a multi-layer perceptron and a DenseNet-style
convolutional network "trained for speech synthesis using ECoG neural data"
(Berezutskaya et al.), originally designed for 128 channels at 2 kHz with a
40-label spectral output.  The exact published layer shapes are not in the
paper; the architectures here are shape-equivalent reconstructions
(DESIGN.md substitution 3) whose base sizes are calibrated so the Fig. 10
feasibility crossovers land near the paper's ~1800 (MLP) / ~1400 (DN-CNN)
channel counts.

Alpha scaling (Section 5.3, "Scaling Factor"): with
``alpha = input size / original input size = n / 128``, layer widths scale
linearly with n and network depth grows with ``log2(alpha)`` extra hidden
layers — width growth alone already makes total MACs quadratic in n, the
super-linear growth the paper requires, while logarithmic depth growth
keeps the model family trainable.

Architecture notes relevant to partitioning (Section 6.1):

* The MLP narrows to an ``n // 4`` bottleneck after its second compute
  layer; that is the earliest layer whose output can be streamed within a
  1024-channel transceiver's data rate (for n <= 4096), so layer reduction
  helps the MLP.
* The DN-CNN's feature maps are all wider than 1024 values until the final
  40-label layer, so no useful split exists — matching the paper's finding
  that the DN-CNN gains nothing from partitioning.

Each workload's architecture is one :class:`_Plan` of layer widths.
``build_speech_*`` turns it into a :class:`~repro.dnn.network.Network`
of layers; ``speech_*_profile`` reads the same plan's
:class:`~repro.dnn.network.NetworkProfile` by arithmetic alone, which is
what the design scans use (a probe needs the Eq. 10 MAC profile of a
network, never its layer objects).
"""

from __future__ import annotations

import math
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from repro.dnn.layers import AvgPool1D, Conv1D, Dense, Flatten, ReLU, Tanh
from repro.dnn.macs import fmac_conv1d, fmac_dense
from repro.dnn.network import Network, NetworkProfile

#: Original workload parameters (paper Section 5.3).
SPEECH_BASE_CHANNELS = 128
SPEECH_BASE_SAMPLING_HZ = 2_000.0
SPEECH_OUTPUT_LABELS = 40

#: Input window length in samples per channel.
SPEECH_WINDOW = 2

#: Arithmetic profile -> the built network whose ``profile()`` it must
#: equal field for field (tests/dnn/test_models.py).
PARITY_ORACLES = {
    "speech_mlp_profile": "build_speech_mlp",
    "speech_dncnn_profile": "build_speech_dncnn",
}


class _Plan(NamedTuple):
    """Layer widths of a speech network, input first.

    Attributes:
        convs: channel counts of the 'same'-padded convolution stack
            over the ``length`` axis (input channels first); empty for
            a network without convolutions.
        kernel_size: convolution receptive field (odd).
        length: convolution axis length (the NI channel count).
        pool: average-pooling factor after the convolutions (1: none).
        dense: widths of the dense stack, its input first; the last
            layer has a Tanh head, the others ReLU.
    """

    convs: tuple[int, ...]
    kernel_size: int
    length: int
    pool: int
    dense: tuple[int, ...]


def alpha_scaling_factor(n_channels: int,
                         base_channels: int = SPEECH_BASE_CHANNELS) -> float:
    """alpha = input size / original input size (Section 5.3)."""
    if n_channels <= 0 or base_channels <= 0:
        raise ValueError("channel counts must be positive")
    return n_channels / base_channels


def _extra_depth(alpha: float) -> int:
    """Extra hidden layers contributed by depth scaling: ~log2(alpha)."""
    if alpha < 1.0:
        return 0
    return max(0, round(math.log2(alpha)))


def _mlp_plan(n_channels: int, window: int, n_outputs: int) -> _Plan:
    """Widths of :func:`build_speech_mlp`."""
    if n_channels <= 0:
        raise ValueError("n_channels must be positive")
    n = n_channels
    widths = (window * n, 2 * n, max(16, n // 4), n)
    widths += (n,) * _extra_depth(alpha_scaling_factor(n))
    return _Plan(convs=(), kernel_size=1, length=n, pool=1,
                 dense=widths + (n_outputs,))


def _dncnn_plan(n_channels: int, window: int, n_outputs: int,
                kernel_size: int) -> _Plan:
    """Widths of :func:`build_speech_dncnn`."""
    if n_channels <= 0:
        raise ValueError("n_channels must be positive")
    if kernel_size % 2 != 1:
        raise ValueError("kernel_size must be odd for 'same' padding")
    n = n_channels
    convs = (window, 8, 16, 16) + (16,) * _extra_depth(
        alpha_scaling_factor(n))
    # Pool by 4 where the length allows it, then the dense head.
    pool = next((p for p in (4, 2) if n % p == 0), 1)
    return _Plan(convs=convs, kernel_size=kernel_size, length=n, pool=pool,
                 dense=(convs[-1] * (n // pool), 2 * n, n, n_outputs))


def _build(plan: _Plan, rng: np.random.Generator | None,
           name: str) -> Network:
    """The plan's layer stack (weights materialized when ``rng`` is
    given, in layer order)."""
    layers: list = []
    if plan.convs:
        pad = plan.kernel_size // 2
        for c_in, c_out in pairwise(plan.convs):
            layers += [Conv1D(c_in, c_out, plan.kernel_size, padding=pad,
                              rng=rng), ReLU()]
        if plan.pool > 1:
            layers.append(AvgPool1D(plan.pool))
        layers.append(Flatten())
        input_shape = (plan.convs[0], plan.length)
    else:
        input_shape = (plan.dense[0],)
    last = len(plan.dense) - 2
    for i, (d_in, d_out) in enumerate(pairwise(plan.dense)):
        layers += [Dense(d_in, d_out, rng=rng),
                   Tanh() if i == last else ReLU()]
    return Network(layers, input_shape=input_shape, name=name)


def _profile(plan: _Plan) -> NetworkProfile:
    """:meth:`Network.profile` of :func:`_build`'s network, from the
    widths alone.  'Same' padding keeps every feature map ``length``
    long."""
    k, length = plan.kernel_size, plan.length
    profiles = [fmac_conv1d(c_in, c_out, k, length)
                for c_in, c_out in pairwise(plan.convs)]
    profiles += [fmac_dense(d_in, d_out)
                 for d_in, d_out in pairwise(plan.dense)]
    sizes = tuple(c * length for c in plan.convs[1:]) + plan.dense[1:]
    n_parameters = (
        sum(c_in * c_out * k + c_out for c_in, c_out in pairwise(plan.convs))
        + sum(d_in * d_out + d_out for d_in, d_out in pairwise(plan.dense)))
    return NetworkProfile(tuple(profiles), sizes, plan.dense[-1],
                          sum(p.total_macs for p in profiles),
                          n_parameters)


def build_speech_mlp(n_channels: int,
                     rng: np.random.Generator | None = None,
                     window: int = SPEECH_WINDOW,
                     n_outputs: int = SPEECH_OUTPUT_LABELS) -> Network:
    """The speech-synthesis MLP scaled to ``n_channels``.

    Structure (widths in units of n = n_channels):
    ``Dense(window*n -> 2n)`` -> ``Dense(2n -> n/4)`` [bottleneck]
    -> ``Dense(n/4 -> n)`` -> ``log2(alpha)`` x ``Dense(n -> n)``
    -> ``Dense(n -> 40)``, ReLU between hidden layers, Tanh head.

    Args:
        n_channels: NI channel count feeding the network.
        rng: materializes weights when given; omit for shape-only analysis.
        window: samples per channel in the input frame.
        n_outputs: output labels (40 speech frequencies in the paper).
    """
    return _build(_mlp_plan(n_channels, window, n_outputs), rng,
                  f"speech-mlp-{n_channels}ch")


def speech_mlp_profile(n_channels: int, window: int = SPEECH_WINDOW,
                       n_outputs: int = SPEECH_OUTPUT_LABELS,
                       ) -> NetworkProfile:
    """``build_speech_mlp(n_channels, ...).profile()`` without building
    the layers."""
    return _profile(_mlp_plan(n_channels, window, n_outputs))


def build_speech_dncnn(n_channels: int,
                       rng: np.random.Generator | None = None,
                       window: int = SPEECH_WINDOW,
                       n_outputs: int = SPEECH_OUTPUT_LABELS,
                       kernel_size: int = 7) -> Network:
    """The DenseNet-style speech CNN (DN-CNN) scaled to ``n_channels``.

    Convolutions run across the channel axis (length n), treating the
    time window as input channels, densely increasing feature counts
    (4 -> 8 -> 16 -> 16...), followed by pooling and a dense head.

    Args:
        n_channels: NI channel count (the convolution axis length).
        rng: materializes weights when given; omit for shape-only analysis.
        window: input time window, used as conv input channels.
        n_outputs: output labels.
        kernel_size: conv receptive field (odd; 'same' padding).
    """
    return _build(_dncnn_plan(n_channels, window, n_outputs, kernel_size),
                  rng, f"speech-dncnn-{n_channels}ch")


def speech_dncnn_profile(n_channels: int, window: int = SPEECH_WINDOW,
                         n_outputs: int = SPEECH_OUTPUT_LABELS,
                         kernel_size: int = 7) -> NetworkProfile:
    """``build_speech_dncnn(n_channels, ...).profile()`` without building
    the layers."""
    return _profile(_dncnn_plan(n_channels, window, n_outputs, kernel_size))

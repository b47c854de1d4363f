"""Pure-NumPy deep-learning substrate with exact MAC accounting.

The MINDFUL computation analysis (paper Section 5.3) needs, for every DNN
layer, the pair (MACseq, #MACop) of Eq. 10 — the accumulation depth and the
number of independent multiply-accumulate sequences.  Rather than hard-code
those numbers, this package implements a small but real neural-network
library (dense / conv / activation layers with forward *and* backward
passes), derives the MAC profile from the actual layer shapes, and provides
builders for the paper's two workloads: the speech-synthesis MLP and
DenseNet-style CNN (DN-CNN) of Berezutskaya et al., plus the alpha-scaling
transform that grows them with channel count.
"""

from repro.dnn.macs import (
    LayerMacs,
    fmac_dense,
    fmac_conv1d,
    fmac_matmul_example,
    fmac_conv_example,
)
from repro.dnn.layers import (
    Layer,
    Dense,
    Conv1D,
    ReLU,
    Tanh,
    Softmax,
    Flatten,
    AvgPool1D,
)
from repro.dnn.network import Network, fmac
from repro.dnn.models import (
    SPEECH_BASE_CHANNELS,
    SPEECH_BASE_SAMPLING_HZ,
    SPEECH_OUTPUT_LABELS,
    alpha_scaling_factor,
    build_speech_mlp,
    build_speech_dncnn,
)
from repro.dnn.train import cross_entropy_loss, mse_loss, sgd_train

__all__ = [
    "LayerMacs",
    "fmac_dense",
    "fmac_conv1d",
    "fmac_matmul_example",
    "fmac_conv_example",
    "Layer",
    "Dense",
    "Conv1D",
    "ReLU",
    "Tanh",
    "Softmax",
    "Flatten",
    "AvgPool1D",
    "Network",
    "fmac",
    "SPEECH_BASE_CHANNELS",
    "SPEECH_BASE_SAMPLING_HZ",
    "SPEECH_OUTPUT_LABELS",
    "alpha_scaling_factor",
    "build_speech_mlp",
    "build_speech_dncnn",
    "cross_entropy_loss",
    "mse_loss",
    "sgd_train",
]

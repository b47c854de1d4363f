"""Baseline decoders and data-reduction substrates.

The paper positions modern DNN decoders against the traditional linear
algorithms BCIs have historically used (Section 2.3): the Kalman filter and
the Wiener filter.  It also leans on spike-sorting-style activity detection
as the mechanism behind the channel-dropout optimization (Section 6.2).
This package implements all three, plus a thin decoder wrapper around the
:mod:`repro.dnn` networks so the examples can compare the families on the
same synthetic datasets.
"""

from repro.decoders.kalman import KalmanFilterDecoder
from repro.decoders.wiener import WienerFilterDecoder
from repro.decoders.spikesort import (
    SpikeDetector,
    channel_activity_ranking,
    select_active_channels,
)
from repro.decoders.dnn_decoder import DnnDecoder
from repro.decoders.cluster import (
    SortResult,
    align_snippets,
    extract_snippets,
    kmeans,
    pca_features,
    sort_spikes,
)

__all__ = [
    "KalmanFilterDecoder",
    "WienerFilterDecoder",
    "SpikeDetector",
    "channel_activity_ranking",
    "select_active_channels",
    "DnnDecoder",
    "SortResult",
    "align_snippets",
    "extract_snippets",
    "kmeans",
    "pca_features",
    "sort_spikes",
]

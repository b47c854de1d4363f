"""Synthetic neural data substrate.

The MINDFUL analysis itself depends only on channel counts, sampling rates,
and bit widths — but the substrates it reasons about (spike sorting, DNN
decoders, packetized wireless streaming) operate on actual waveforms.  This
package synthesizes those waveforms: Poisson spiking units with extracellular
templates, ECoG/LFP-like field potentials (1/f background plus band-limited
oscillations), and parametric decoding datasets that stand in for the in-vivo
recordings the paper's workloads were trained on (see DESIGN.md,
substitution 4).
"""

from repro.signals.spikes import (
    SpikeUnit,
    exponential_spike_template,
    biphasic_spike_template,
    poisson_spike_train,
    render_spike_waveform,
)
from repro.signals.lfp import OscillatoryBand, pink_noise, synthesize_ecog
from repro.signals.filters import (
    bandpass,
    common_average_reference,
    lfp_band,
    notch,
    spike_band,
)
from repro.signals.spectral import (
    CANONICAL_BANDS,
    EnvelopeExtractor,
    band_power,
    band_power_features,
    welch_psd,
)
from repro.signals.datasets import (
    CursorDataset,
    SpeechDataset,
    make_cursor_dataset,
    make_speech_dataset,
)

__all__ = [
    "SpikeUnit",
    "exponential_spike_template",
    "biphasic_spike_template",
    "poisson_spike_train",
    "render_spike_waveform",
    "OscillatoryBand",
    "pink_noise",
    "synthesize_ecog",
    "CursorDataset",
    "SpeechDataset",
    "make_cursor_dataset",
    "make_speech_dataset",
    "bandpass",
    "common_average_reference",
    "lfp_band",
    "notch",
    "spike_band",
    "CANONICAL_BANDS",
    "EnvelopeExtractor",
    "band_power",
    "band_power_features",
    "welch_psd",
]

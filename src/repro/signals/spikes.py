"""Spiking-unit models: Poisson trains and extracellular waveform templates.

Single units are the atoms of invasive neural recordings.  We model a unit as
a (possibly inhomogeneous) Poisson process with an absolute refractory
period, and render its extracellular footprint by convolving the spike train
with a stereotyped action-potential template.  The templates here are the
standard parametric shapes used in spike-sorting literature (biphasic
difference-of-exponentials), which is all the template-matching substrate in
:mod:`repro.decoders.spikesort` needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def exponential_spike_template(sampling_rate_hz: float,
                               duration_s: float = 2e-3,
                               decay_s: float = 4e-4,
                               amplitude: float = 1.0) -> np.ndarray:
    """A simple monophasic spike template: instant rise, exponential decay.

    Args:
        sampling_rate_hz: waveform sampling rate.
        duration_s: total template duration.
        decay_s: exponential decay time constant.
        amplitude: peak (absolute) amplitude; the template is negative-going,
            as extracellular spikes are.

    Returns:
        1-D array of length ``round(duration_s * sampling_rate_hz)``.
    """
    _validate_rate(sampling_rate_hz)
    n = max(1, int(round(duration_s * sampling_rate_hz)))
    t = np.arange(n) / sampling_rate_hz
    return -amplitude * np.exp(-t / decay_s)


def biphasic_spike_template(sampling_rate_hz: float,
                            duration_s: float | None = None,
                            depolarization_s: float = 2e-4,
                            repolarization_s: float = 6e-4,
                            amplitude: float = 1.0) -> np.ndarray:
    """Biphasic extracellular spike: sharp trough, slow positive hump.

    The shape is a difference of two exponential-rise/decay lobes, normalized
    so the trough magnitude equals ``amplitude``.  The default length,
    ``2 * depolarization_s + 6 * repolarization_s``, runs four widths past
    the hump's centre: a template cut while the hump is still high ends
    in a step, which a spike-band high-pass turns into a second trough
    that a threshold detector counts as a spike.
    """
    _validate_rate(sampling_rate_hz)
    if duration_s is None:
        duration_s = 2 * depolarization_s + 6 * repolarization_s
    n = max(2, int(round(duration_s * sampling_rate_hz)))
    t = np.arange(n) / sampling_rate_hz
    trough = -np.exp(
        -0.5 * ((t - 2 * depolarization_s) / depolarization_s) ** 2)
    hump = 0.35 * np.exp(
        -0.5 * ((t - 2 * depolarization_s - 2 * repolarization_s)
                / repolarization_s) ** 2)
    shape = trough + hump
    peak = np.max(np.abs(shape))
    return amplitude * shape / peak


def poisson_spike_train(rate_hz: float | np.ndarray,
                        duration_s: float,
                        sampling_rate_hz: float,
                        rng: np.random.Generator,
                        refractory_s: float = 1e-3) -> np.ndarray:
    """Sample a binary spike train from a (possibly time-varying) Poisson rate.

    Args:
        rate_hz: scalar rate, or an array of instantaneous rates with one
            entry per output sample.
        duration_s: train duration (ignored if ``rate_hz`` is an array, whose
            length then defines the duration).
        sampling_rate_hz: resolution of the output binary train.
        rng: NumPy random generator (callers own the seed).
        refractory_s: absolute refractory period; spikes closer than this to
            the previous spike are suppressed.

    Returns:
        Binary (0/1) array with one entry per sample.
    """
    _validate_rate(sampling_rate_hz)
    if np.isscalar(rate_hz):
        n = int(round(duration_s * sampling_rate_hz))
        rates = np.full(n, float(rate_hz))
    else:
        rates = np.asarray(rate_hz, dtype=float)
        n = rates.size
    if np.any(rates < 0):
        raise ValueError("firing rates must be non-negative")
    p = np.clip(rates / sampling_rate_hz, 0.0, 1.0)
    train = (rng.random(n) < p).astype(np.int8)
    refractory_samples = int(round(refractory_s * sampling_rate_hz))
    if refractory_samples > 0:
        last_spike = -refractory_samples - 1
        spike_idx = np.flatnonzero(train)
        for idx in spike_idx:
            if idx - last_spike <= refractory_samples:
                train[idx] = 0
            else:
                last_spike = idx
    return train


@dataclass
class SpikeUnit:
    """A single spiking unit observed by one or more channels.

    Attributes:
        rate_hz: mean firing rate.
        amplitude: spike amplitude at its best channel (arbitrary units,
            typically interpreted as uV after front-end gain normalization).
        template: waveform rendered for each spike.
        channel_weights: per-channel attenuation of the template (1.0 at the
            closest channel, decaying with distance).  Empty mapping means
            the unit is rendered on whichever single channel the caller
            chooses.
    """

    rate_hz: float
    amplitude: float = 1.0
    template: np.ndarray | None = None
    channel_weights: dict[int, float] = field(default_factory=dict)

    def spike_times(self, duration_s: float, sampling_rate_hz: float,
                    rng: np.random.Generator) -> np.ndarray:
        """Sample spike sample-indices over ``duration_s``."""
        train = poisson_spike_train(self.rate_hz, duration_s,
                                    sampling_rate_hz, rng)
        return np.flatnonzero(train)


def render_spike_waveform(spike_indices: np.ndarray,
                          template: np.ndarray,
                          n_samples: int,
                          amplitude: float = 1.0) -> np.ndarray:
    """Convolve a set of spike sample-indices with a waveform template.

    Spikes whose template would extend past the end of the buffer are
    truncated rather than dropped, so late spikes still contribute energy.
    """
    waveform = np.zeros(n_samples)
    t_len = template.size
    for idx in np.asarray(spike_indices, dtype=int):
        if idx < 0 or idx >= n_samples:
            raise ValueError(f"spike index {idx} outside waveform of "
                             f"length {n_samples}")
        end = min(idx + t_len, n_samples)
        waveform[idx:end] += amplitude * template[:end - idx]
    return waveform


def _validate_rate(sampling_rate_hz: float) -> None:
    if sampling_rate_hz <= 0:
        raise ValueError("sampling rate must be positive")

"""Field-potential synthesis: 1/f background plus band-limited oscillations.

ECoG and LFP recordings are dominated by a power-law ("pink") background with
superimposed oscillatory bands (theta, alpha, beta, gamma...).  The MINDFUL
workloads decode from exactly this kind of signal, so the synthetic ECoG here
gives the compression and decoder substrates realistic inputs without
in-vivo data (DESIGN.md substitution 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OscillatoryBand:
    """A narrow-band oscillation mixed into the synthetic field potential.

    Attributes:
        center_hz: center frequency of the band.
        bandwidth_hz: 3 dB width; the oscillation's instantaneous frequency
            wanders within roughly this band.
        amplitude: RMS amplitude relative to unit-RMS pink background.
    """

    center_hz: float
    bandwidth_hz: float
    amplitude: float

    def __post_init__(self) -> None:
        if self.center_hz <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("band frequencies must be positive")
        if self.amplitude < 0:
            raise ValueError("band amplitude must be non-negative")


#: A standard cortical band mix used by the dataset builders.
DEFAULT_BANDS = (
    OscillatoryBand(center_hz=10.0, bandwidth_hz=4.0, amplitude=0.8),
    OscillatoryBand(center_hz=22.0, bandwidth_hz=8.0, amplitude=0.5),
    OscillatoryBand(center_hz=75.0, bandwidth_hz=40.0, amplitude=0.35),
)


def pink_noise(n_samples: int, rng: np.random.Generator,
               exponent: float = 1.0) -> np.ndarray:
    """Generate 1/f^exponent noise with unit RMS via spectral shaping.

    Args:
        n_samples: output length.
        rng: random generator.
        exponent: spectral slope; 0 gives white noise, 1 pink, 2 brown.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    white = rng.standard_normal(n_samples)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_samples)
    # Avoid dividing by zero at DC; pin DC gain to the first non-zero bin.
    scale = np.ones_like(freqs)
    nonzero = freqs > 0
    scale[nonzero] = freqs[nonzero] ** (-exponent / 2.0)
    if n_samples > 1:
        scale[0] = scale[1]
    shaped = np.fft.irfft(spectrum * scale, n=n_samples)
    rms = np.sqrt(np.mean(shaped ** 2))
    if rms == 0:
        return shaped
    return shaped / rms


def _band_oscillation(band: OscillatoryBand, n_samples: int,
                      sampling_rate_hz: float,
                      rng: np.random.Generator) -> np.ndarray:
    """One band-limited oscillation with randomly wandering phase."""
    t = np.arange(n_samples) / sampling_rate_hz
    # Random-walk frequency modulation bounded by the bandwidth.
    fm = np.cumsum(rng.standard_normal(n_samples))
    fm = fm / (np.max(np.abs(fm)) + 1e-12) * band.bandwidth_hz / 2.0
    phase = 2 * np.pi * np.cumsum(band.center_hz + fm) / sampling_rate_hz
    envelope = 1.0 + 0.3 * pink_noise(n_samples, rng, exponent=1.0)
    osc = envelope * np.sin(phase + rng.uniform(0, 2 * np.pi))
    rms = np.sqrt(np.mean(osc ** 2))
    del t
    return band.amplitude * osc / (rms + 1e-12)


def synthesize_ecog(n_channels: int,
                    duration_s: float,
                    sampling_rate_hz: float,
                    rng: np.random.Generator,
                    bands: tuple[OscillatoryBand, ...] = DEFAULT_BANDS,
                    spatial_correlation: float = 0.5,
                    noise_rms: float = 0.2) -> np.ndarray:
    """Synthesize a multi-channel ECoG-like array.

    Each channel is a mixture of shared (spatially correlated) activity and
    channel-private activity, matching the redundancy across neighbouring
    electrodes that motivates the paper's channel-dropout optimization
    (Section 6.2).

    Args:
        n_channels: number of electrodes.
        duration_s: recording length in seconds.
        sampling_rate_hz: NI sampling rate.
        rng: random generator.
        bands: oscillatory bands to mix in.
        spatial_correlation: in [0, 1]; fraction of each channel's variance
            drawn from the shared source.
        noise_rms: RMS of additive white sensor noise.

    Returns:
        Array of shape (n_channels, n_samples).
    """
    if n_channels <= 0:
        raise ValueError("n_channels must be positive")
    if not 0.0 <= spatial_correlation <= 1.0:
        raise ValueError("spatial_correlation must be within [0, 1]")
    n_samples = int(round(duration_s * sampling_rate_hz))
    if n_samples <= 0:
        raise ValueError("duration too short for the sampling rate")

    shared = pink_noise(n_samples, rng)
    for band in bands:
        shared = shared + _band_oscillation(band, n_samples,
                                            sampling_rate_hz, rng)
    shared /= np.sqrt(np.mean(shared ** 2)) + 1e-12

    data = np.empty((n_channels, n_samples))
    w_shared = np.sqrt(spatial_correlation)
    w_private = np.sqrt(1.0 - spatial_correlation)
    for ch in range(n_channels):
        private = pink_noise(n_samples, rng)
        data[ch] = (w_shared * shared + w_private * private
                    + noise_rms * rng.standard_normal(n_samples))
    return data

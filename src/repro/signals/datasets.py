"""Parametric decoding datasets for the baseline decoders.

Two dataset families mirror the paper's motivating workloads:

* **Cursor kinematics** (Section 2, "online applications"): a 2-D latent
  cursor velocity drives cosine-tuned channel activity; the decoding task is
  to reconstruct velocity.  This is the classic workload for the Kalman
  filter baseline (Wu et al., NeurIPS 2002).
* **Speech spectrogram** (Berezutskaya et al.): latent articulatory states
  drive high-gamma band power across an ECoG grid; the decoding task is a
  40-bin log-mel-like spectral target, matching the 40-label output of the
  paper's MLP and DN-CNN workloads.

Both are generated, not recorded — see DESIGN.md substitution 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.signals.lfp import pink_noise

#: Output dimensionality of the speech workload (paper Section 5.3: "The
#: output of both networks consists of 40 labels").
SPEECH_OUTPUT_BINS = 40


@dataclass(frozen=True)
class CursorDataset:
    """Neural features paired with latent 2-D cursor kinematics.

    Attributes:
        features: (n_timesteps, n_channels) smoothed channel activity.
        velocity: (n_timesteps, 2) latent cursor velocity.
        position: (n_timesteps, 2) integrated cursor position.
        dt_s: timestep in seconds.
    """

    features: np.ndarray
    velocity: np.ndarray
    position: np.ndarray
    dt_s: float


@dataclass(frozen=True)
class SpeechDataset:
    """Windowed neural features paired with 40-bin spectral targets.

    Attributes:
        features: (n_frames, n_channels * window) flattened input windows.
        targets: (n_frames, SPEECH_OUTPUT_BINS) spectral envelopes.
        n_channels: channels per frame.
        window: samples per channel per frame.
    """

    features: np.ndarray
    targets: np.ndarray
    n_channels: int
    window: int


def make_cursor_dataset(n_channels: int,
                        n_timesteps: int,
                        rng: np.random.Generator,
                        dt_s: float = 0.02,
                        noise_rms: float = 0.3) -> CursorDataset:
    """Generate a cosine-tuned cursor-control dataset.

    Each channel has a preferred direction; its activity is a rectified
    cosine tuning of the latent velocity plus noise, temporally smoothed to
    mimic binned firing rates.
    """
    _check_positive(n_channels=n_channels, n_timesteps=n_timesteps)
    # Smooth random-walk velocity with spring-back so it stays bounded.
    velocity = np.zeros((n_timesteps, 2))
    for t in range(1, n_timesteps):
        velocity[t] = (0.95 * velocity[t - 1]
                       + 0.3 * rng.standard_normal(2))
    position = np.cumsum(velocity * dt_s, axis=0)

    angles = rng.uniform(0, 2 * np.pi, size=n_channels)
    preferred = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    baselines = rng.uniform(0.2, 1.0, size=n_channels)
    gains = rng.uniform(0.5, 2.0, size=n_channels)

    drive = velocity @ preferred.T  # (T, C)
    rates = np.maximum(baselines + gains * drive, 0.0)
    features = rates + noise_rms * rng.standard_normal(rates.shape)
    # Exponential smoothing ~ 3-bin window, like binned spike counts.
    for t in range(1, n_timesteps):
        features[t] = 0.6 * features[t] + 0.4 * features[t - 1]
    return CursorDataset(features=features, velocity=velocity,
                         position=position, dt_s=dt_s)


def make_speech_dataset(n_channels: int,
                        n_frames: int,
                        rng: np.random.Generator,
                        window: int = 4,
                        n_latents: int = 8,
                        noise_rms: float = 0.25) -> SpeechDataset:
    """Generate a speech-synthesis-like dataset.

    A small set of slowly varying latent articulatory states linearly drives
    both the neural features and the 40-bin spectral targets, so the mapping
    is learnable by the MLP / DN-CNN substrates but not trivial (channel
    mixing plus nonlinearity plus noise).
    """
    _check_positive(n_channels=n_channels, n_frames=n_frames, window=window,
                    n_latents=n_latents)
    latents = np.empty((n_frames, n_latents))
    for k in range(n_latents):
        latents[:, k] = pink_noise(n_frames, rng)

    neural_mix = rng.standard_normal((n_latents, n_channels * window))
    neural_mix /= np.sqrt(n_latents)
    features = np.tanh(latents @ neural_mix)
    features = features + noise_rms * rng.standard_normal(features.shape)

    target_mix = rng.standard_normal((n_latents, SPEECH_OUTPUT_BINS))
    target_mix /= np.sqrt(n_latents)
    targets = np.tanh(latents @ target_mix)
    return SpeechDataset(features=features, targets=targets,
                         n_channels=n_channels, window=window)


def _check_positive(**values: int) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")

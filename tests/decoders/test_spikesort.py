"""Tests for spike detection, template matching, and channel selection."""

import numpy as np
import pytest

from repro.decoders.spikesort import (
    SpikeDetector,
    channel_activity_ranking,
    mad_noise_estimate,
    select_active_channels,
)
from repro.signals.filters import spike_band
from repro.signals.spikes import (
    biphasic_spike_template,
    poisson_spike_train,
    render_spike_waveform,
)

FS = 30e3


def noisy_channel(rng, rate_hz=20.0, amplitude=8.0, duration=2.0):
    """White noise with embedded biphasic spikes."""
    n = int(duration * FS)
    noise = rng.standard_normal(n)
    template = biphasic_spike_template(FS, amplitude=amplitude)
    spikes = np.flatnonzero(
        poisson_spike_train(rate_hz, duration, FS, rng, refractory_s=3e-3))
    return noise + render_spike_waveform(spikes, template, n), spikes


class TestNoiseEstimate:
    def test_matches_sigma_for_gaussian(self, rng):
        sigma = mad_noise_estimate(2.5 * rng.standard_normal(100_000))
        assert sigma == pytest.approx(2.5, rel=0.03)

    def test_robust_to_spikes(self, rng):
        signal, _ = noisy_channel(rng, rate_hz=30.0, amplitude=20.0)
        assert mad_noise_estimate(signal) == pytest.approx(1.0, rel=0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mad_noise_estimate(np.array([]))


class TestSpikeDetector:
    def test_finds_most_embedded_spikes(self, rng):
        signal, truth = noisy_channel(rng, rate_hz=10.0, amplitude=10.0)
        detected = SpikeDetector().detect(signal)
        # The biphasic trough sits ~12 samples after spike onset, so
        # threshold crossings lag the ground-truth indices slightly.
        matched = sum(1 for t in truth
                      if np.any(np.abs(detected - t) <= 15))
        assert matched >= 0.8 * len(truth)

    def test_few_false_positives_on_pure_noise(self, rng):
        noise = rng.standard_normal(int(FS))
        detected = SpikeDetector(threshold_sigmas=5.0).detect(noise)
        assert len(detected) < 10

    def test_refractory_thins_detections(self, rng):
        signal, _ = noisy_channel(rng, rate_hz=100.0, amplitude=10.0)
        dense = SpikeDetector(refractory_samples=0).detect(signal)
        sparse = SpikeDetector(refractory_samples=150).detect(signal)
        assert len(sparse) <= len(dense)

    def test_detect_all_shape(self, rng):
        data = rng.standard_normal((4, 1000))
        assert len(SpikeDetector().detect_all(data)) == 4

    def test_detect_all_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            SpikeDetector().detect_all(rng.standard_normal(100))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SpikeDetector(threshold_sigmas=0.0)


class TestTwoUnitChannel:
    """Two units of different width on one band-passed channel."""

    #: (depolarization, trough amplitude, rate) of a fast large unit and
    #: a slow small one, in 0.6-sigma noise at 30 kHz for 6 s.
    UNITS = ((1.5e-4, 9.0, 9.0), (4.0e-4, 5.0, 7.0))
    DURATION_S = 6.0

    def _channel(self):
        rng = np.random.default_rng(31)
        n = int(self.DURATION_S * FS)
        signal = 0.6 * rng.standard_normal(n)
        n_spikes = 0
        for depolarization, amplitude, rate in self.UNITS:
            template = biphasic_spike_template(
                FS, depolarization_s=depolarization, amplitude=amplitude)
            spikes = np.flatnonzero(poisson_spike_train(
                rate, self.DURATION_S, FS, rng, refractory_s=5e-3))
            signal += render_spike_waveform(spikes, template, n)
            n_spikes += spikes.size
        return spike_band(signal, FS), n_spikes

    def test_each_spike_is_detected_once(self):
        # A template cut while its positive hump is still high leaves a
        # step that the high-pass turns into a second trough, which the
        # detector counts 61-80 samples after the true spike.
        filtered, n_spikes = self._channel()
        detector = SpikeDetector(threshold_sigmas=4.5,
                                 refractory_samples=60)
        assert n_spikes == 84
        assert len(detector.detect(filtered)) == pytest.approx(
            n_spikes, rel=0.1)


class TestChannelSelection:
    def _mixed_population(self, rng, n_active=4, n_silent=12):
        rows = []
        for _ in range(n_active):
            signal, _ = noisy_channel(rng, rate_hz=30.0, amplitude=10.0,
                                      duration=1.0)
            rows.append(signal)
        for _ in range(n_silent):
            rows.append(rng.standard_normal(int(FS)))
        return np.stack(rows)

    def test_active_channels_rank_first(self, rng):
        data = self._mixed_population(rng)
        ranking = channel_activity_ranking(data)
        assert set(ranking[:4]) == {0, 1, 2, 3}

    def test_select_returns_sorted_subset(self, rng):
        data = self._mixed_population(rng)
        kept = select_active_channels(data, 4)
        assert list(kept) == sorted(kept)
        assert set(kept) == {0, 1, 2, 3}

    def test_select_all_channels(self, rng):
        data = self._mixed_population(rng, n_active=2, n_silent=2)
        assert len(select_active_channels(data, 4)) == 4

    def test_rejects_bad_count(self, rng):
        data = rng.standard_normal((4, 100))
        with pytest.raises(ValueError):
            select_active_channels(data, 0)
        with pytest.raises(ValueError):
            select_active_channels(data, 5)

"""Tests for the Wiener filter decoder."""

import numpy as np
import pytest

from repro.decoders.wiener import WienerFilterDecoder, _embed
from repro.signals.datasets import make_cursor_dataset


class TestFitting:
    def test_fitted_flag(self, rng):
        decoder = WienerFilterDecoder(n_lags=2)
        assert not decoder.fitted
        decoder.fit(rng.standard_normal((20, 2)),
                    rng.standard_normal((20, 4)))
        assert decoder.fitted

    def test_rejects_mismatched(self, rng):
        with pytest.raises(ValueError):
            WienerFilterDecoder().fit(rng.standard_normal((10, 2)),
                                      rng.standard_normal((11, 3)))

    def test_rejects_too_few_samples(self, rng):
        decoder = WienerFilterDecoder(n_lags=10)
        with pytest.raises(ValueError):
            decoder.fit(rng.standard_normal((5, 2)),
                        rng.standard_normal((5, 3)))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            WienerFilterDecoder(n_lags=0)
        with pytest.raises(ValueError):
            WienerFilterDecoder(regularization=-1.0)


class TestDecoding:
    def test_decode_before_fit_raises(self, rng):
        with pytest.raises(RuntimeError):
            WienerFilterDecoder().decode(rng.standard_normal((5, 3)))

    def test_recovers_instantaneous_linear_map(self, rng):
        x = rng.standard_normal((1000, 4))
        w = rng.standard_normal((4, 2))
        y = x @ w
        decoder = WienerFilterDecoder(n_lags=1, regularization=1e-8)
        decoder.fit(y, x)
        pred = decoder.decode(x)
        np.testing.assert_allclose(pred[5:], y[5:], atol=1e-6)

    def test_lags_capture_delayed_dependence(self, rng):
        # Target depends on the feature two frames ago.
        features = rng.standard_normal((2000, 3))
        targets = np.roll(features[:, :1], 2, axis=0)
        targets[:2] = 0
        lagged = WienerFilterDecoder(n_lags=4)
        lagged.fit(targets, features)
        instant = WienerFilterDecoder(n_lags=1)
        instant.fit(targets, features)
        err_lagged = np.mean((lagged.decode(features) - targets) ** 2)
        err_instant = np.mean((instant.decode(features) - targets) ** 2)
        assert err_lagged < 0.1 * err_instant

    def test_cursor_decoding_beats_chance(self, rng):
        data = make_cursor_dataset(48, 4000, rng, noise_rms=0.2)
        split = 3000
        decoder = WienerFilterDecoder(n_lags=5)
        decoder.fit(data.velocity[:split], data.features[:split])
        score = decoder.score(data.velocity[split:], data.features[split:])
        assert score > 0.5

    def test_decoded_shape(self, rng):
        decoder = WienerFilterDecoder(n_lags=3)
        decoder.fit(rng.standard_normal((50, 2)),
                    rng.standard_normal((50, 6)))
        assert decoder.decode(rng.standard_normal((20, 6))).shape == (20, 2)


def _embed_loop(observations, n_lags):
    """The per-row lag embedding the strided one replaced."""
    t_len, m = observations.shape
    padded = np.vstack([np.zeros((n_lags - 1, m)), observations])
    design = np.empty((t_len, n_lags * m + 1))
    for t in range(t_len):
        design[t, :-1] = padded[t:t + n_lags].reshape(-1)
        design[t, -1] = 1.0
    return design


class TestEmbedding:
    @pytest.mark.parametrize("n_lags", [1, 3, 5])
    def test_strided_design_equals_the_row_loop(self, rng, n_lags):
        stack = rng.standard_normal((4, 30, 6))
        expected = np.stack([_embed_loop(obs, n_lags) for obs in stack])
        assert np.array_equal(_embed(stack, n_lags), expected)
        assert np.array_equal(_embed(stack[0], n_lags), expected[0])

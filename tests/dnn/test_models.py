"""Tests for the speech-workload builders and alpha scaling."""

from functools import partial

import pytest

from repro.dnn.models import (
    SPEECH_BASE_CHANNELS,
    SPEECH_OUTPUT_LABELS,
    alpha_scaling_factor,
    build_speech_dncnn,
    build_speech_mlp,
    speech_dncnn_profile,
    speech_mlp_profile,
)


class TestAlpha:
    def test_base_is_one(self):
        assert alpha_scaling_factor(SPEECH_BASE_CHANNELS) == 1.0

    def test_1024_is_eight(self):
        assert alpha_scaling_factor(1024) == 8.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            alpha_scaling_factor(0)


class TestMlpBuilder:
    def test_output_is_40_labels(self):
        assert build_speech_mlp(1024).output_values == SPEECH_OUTPUT_LABELS

    def test_output_size_independent_of_channels(self):
        # Section 5.3: classification output size does not scale with input.
        for n in (128, 512, 2048):
            assert build_speech_mlp(n).output_values == SPEECH_OUTPUT_LABELS

    def test_macs_superlinear_in_channels(self):
        base = build_speech_mlp(512).total_macs
        doubled = build_speech_mlp(1024).total_macs
        assert doubled > 2.5 * base  # super-linear (roughly quadratic)

    def test_depth_grows_with_alpha(self):
        shallow = build_speech_mlp(128).n_compute_layers
        deep = build_speech_mlp(4096).n_compute_layers
        assert deep > shallow

    def test_bottleneck_is_quarter_width(self):
        net = build_speech_mlp(2048)
        sizes = net.compute_layer_output_values()
        assert 512 in sizes  # the n/4 bottleneck

    def test_bottleneck_enables_partitioning_below_4096(self):
        sizes = build_speech_mlp(4096).compute_layer_output_values()
        assert any(s <= 1024 for s in sizes[:-1])

    def test_forward_runs_when_materialized(self, rng):
        net = build_speech_mlp(128, rng=rng)
        x = rng.standard_normal((2,) + net.input_shape)
        assert net.forward(x).shape == (2, SPEECH_OUTPUT_LABELS)

    def test_rejects_non_positive_channels(self):
        with pytest.raises(ValueError):
            build_speech_mlp(0)


class TestDncnnBuilder:
    def test_output_is_40_labels(self):
        assert build_speech_dncnn(1024).output_values == SPEECH_OUTPUT_LABELS

    def test_heavier_than_mlp(self):
        # The paper's DN-CNN crosses the budget before the MLP does.
        for n in (1024, 2048):
            assert (build_speech_dncnn(n).total_macs
                    > build_speech_mlp(n).total_macs)

    def test_intermediate_maps_exceed_1024_values(self):
        # No admissible partition split (Section 6.1 finding).
        sizes = build_speech_dncnn(2048).compute_layer_output_values()
        assert all(s > 1024 for s in sizes[:-1])

    def test_conv_depth_grows_with_alpha(self):
        shallow = build_speech_dncnn(128).n_compute_layers
        deep = build_speech_dncnn(4096).n_compute_layers
        assert deep > shallow

    def test_forward_runs_when_materialized(self, rng):
        net = build_speech_dncnn(64, rng=rng)
        x = rng.standard_normal((2,) + net.input_shape)
        assert net.forward(x).shape == (2, SPEECH_OUTPUT_LABELS)

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            build_speech_dncnn(128, kernel_size=4)

    def test_shape_only_build_is_cheap_at_scale(self):
        # Building at 8192 channels must not allocate weight arrays.
        net = build_speech_dncnn(8192)
        assert net.total_macs > 1e8
        assert all(not getattr(layer, "materialized", False)
                   for layer in net.layers)


class TestArithmeticProfile:
    """``speech_*_profile`` reads the profile off the layer widths; it must
    equal the built network's ``profile()`` on every field."""

    @pytest.mark.parametrize("build, profile", [
        (build_speech_mlp, speech_mlp_profile),
        (build_speech_dncnn, speech_dncnn_profile),
        (partial(build_speech_mlp, window=4),
         partial(speech_mlp_profile, window=4)),
    ], ids=["mlp", "dncnn", "mlp-window4"])
    def test_matches_the_built_network_up_to_16384_channels(self, build,
                                                            profile):
        for n in range(1, 16385):
            assert profile(n) == build(n).profile(), n

    @pytest.mark.parametrize("kwargs", [
        {"n_channels": 0},
        {"n_channels": 128, "window": 0},
        {"n_channels": 128, "n_outputs": 0},
    ])
    @pytest.mark.parametrize("build, profile", [
        (build_speech_mlp, speech_mlp_profile),
        (build_speech_dncnn, speech_dncnn_profile),
    ], ids=["mlp", "dncnn"])
    def test_rejects_what_the_builder_rejects(self, build, profile, kwargs):
        for make in (build, profile):
            with pytest.raises(ValueError):
                make(**kwargs)

    def test_dncnn_rejects_even_kernels(self):
        for make in (build_speech_dncnn, speech_dncnn_profile):
            with pytest.raises(ValueError):
                make(128, kernel_size=4)

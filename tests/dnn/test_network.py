"""Tests for the Network container, fMAC, and head splitting."""

import numpy as np
import pytest

from repro.dnn.layers import Dense, Flatten, ReLU
from repro.dnn.models import build_speech_dncnn, build_speech_mlp
from repro.dnn.network import Network, fmac

#: Channel counts spanning the MLP depths and the DN-CNN pool-by-4,
#: pool-by-2 and no-pool branches.
N_SPREAD = (16, 37, 130, 514, 1022, 2048, 3001, 4096)


def small_net(rng=None) -> Network:
    return Network([
        Dense(8, 6, rng=rng), ReLU(),
        Dense(6, 4, rng=rng), ReLU(),
        Dense(4, 2, rng=rng),
    ], input_shape=(8,), name="tiny")


class TestNetwork:
    def test_shape_inference(self):
        net = small_net()
        assert net.output_shape == (2,)
        assert net.output_values == 2

    def test_incompatible_layers_rejected_at_build(self):
        with pytest.raises(ValueError):
            Network([Dense(8, 6), Dense(5, 2)], input_shape=(8,))

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            Network([], input_shape=(4,))

    def test_forward_shape(self, rng):
        net = small_net(rng)
        assert net.forward(rng.standard_normal((3, 8))).shape == (3, 2)

    def test_forward_rejects_wrong_shape(self, rng):
        net = small_net(rng)
        with pytest.raises(ValueError):
            net.forward(rng.standard_normal((3, 7)))

    def test_compute_layer_count_skips_activations(self):
        assert small_net().n_compute_layers == 3

    def test_total_macs(self):
        assert small_net().total_macs == 8 * 6 + 6 * 4 + 4 * 2

    def test_n_parameters(self):
        expected = (8 * 6 + 6) + (6 * 4 + 4) + (4 * 2 + 2)
        assert small_net().n_parameters == expected

    def test_compute_layer_output_values(self):
        assert small_net().compute_layer_output_values() == [6, 4, 2]


class TestProfileWalk:
    """``Network.profile`` against a layer-by-layer walk and the
    per-quantity accessors."""

    @staticmethod
    def _reference(net):
        profiles, sizes, shape = [], [], net.input_shape
        for layer in net.layers:
            out_shape = layer.output_shape(shape)
            macs = layer.mac_profile(shape)
            if macs.total_macs:
                profiles.append(macs)
                sizes.append(int(np.prod(out_shape)))
            shape = out_shape
        return profiles, sizes

    @pytest.mark.parametrize("build", [build_speech_mlp, build_speech_dncnn])
    @pytest.mark.parametrize("n_channels", N_SPREAD)
    def test_one_walk_matches_every_accessor(self, build, n_channels):
        net = build(n_channels)
        walk = net.profile()
        profiles, sizes = self._reference(net)
        assert list(walk.profiles) == profiles == net.mac_profiles()
        assert (list(walk.sizes) == sizes
                == net.compute_layer_output_values())
        assert walk.output_values == net.output_values
        assert walk.total_macs == net.total_macs == sum(
            p.mac_seq * p.mac_ops for p in profiles)
        assert walk.n_parameters == net.n_parameters


class TestFmac:
    def test_eq10_lists(self):
        seqs, ops = fmac(small_net())
        assert seqs == [8, 6, 4]
        assert ops == [6, 4, 2]

    def test_flatten_not_counted(self):
        net = Network([Flatten(), Dense(12, 4)], input_shape=(3, 4))
        seqs, ops = fmac(net)
        assert seqs == [12]
        assert ops == [4]


class TestHead:
    def test_head_keeps_prefix(self):
        head = small_net().head(2)
        assert head.n_compute_layers == 2
        assert head.output_shape == (4,)

    def test_head_includes_trailing_activation(self):
        head = small_net().head(1)
        # Dense + ReLU kept.
        assert len(head.layers) == 2
        assert head.output_shape == (6,)

    def test_head_full_network(self):
        head = small_net().head(3)
        assert head.n_compute_layers == 3

    def test_head_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            small_net().head(0)
        with pytest.raises(ValueError):
            small_net().head(4)

    def test_head_forward_matches_prefix(self, rng):
        net = small_net(rng)
        head = net.head(2)
        x = rng.standard_normal((2, 8))
        expected = x
        for layer in net.layers[:4]:
            expected = layer.forward(expected)
        np.testing.assert_allclose(head.forward(x), expected)

    def test_head_macs_below_full(self):
        net = small_net()
        assert net.head(2).total_macs < net.total_macs


class TestGradients:
    def test_zero_gradients_resets(self, rng):
        net = small_net(rng)
        out = net.forward(rng.standard_normal((2, 8)))
        net.backward(np.ones_like(out))
        first_dense = net.layers[0]
        assert np.any(first_dense.grad_weight != 0)
        net.zero_gradients()
        assert np.all(first_dense.grad_weight == 0)

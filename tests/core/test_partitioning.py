"""Tests for Section 6.1 DNN partitioning (Fig. 11): the "optimal" and
"earliest" rules of :mod:`repro.core.comp_centric`."""

import pytest

from repro.core.comp_centric import (
    PartitioningGain,
    Workload,
    admissible_splits,
    evaluate_comp_centric,
    max_feasible_channels,
    partitioning_gain,
)
from repro.dnn.models import build_speech_dncnn, build_speech_mlp


class TestSplitSelection:
    def test_mlp_has_admissible_split_at_2048(self):
        net = build_speech_mlp(2048)
        assert admissible_splits(net.profile())  # the n/4 bottleneck qualifies

    def test_dncnn_has_no_admissible_split_at_2048(self):
        net = build_speech_dncnn(2048)
        assert admissible_splits(net.profile()) == []

    def test_earliest_rule_returns_first(self, bisc):
        net = build_speech_mlp(2048)
        point = evaluate_comp_centric(bisc, Workload.MLP, 2048,
                                      rule="earliest")
        assert point.split_layer == admissible_splits(net.profile())[0]

    def test_earliest_rule_none_for_dncnn(self, bisc):
        point = evaluate_comp_centric(bisc, Workload.DNCNN, 2048,
                                      rule="earliest")
        assert point.split_layer is None

    def test_split_output_within_transmission_cap(self):
        net = build_speech_mlp(4096)
        sizes = net.compute_layer_output_values()
        for split in admissible_splits(net.profile()):
            assert sizes[split - 1] <= 1024

    def test_mlp_beyond_4096_loses_its_split(self):
        # The n/4 bottleneck exceeds 1024 values past 4096 channels.
        net = build_speech_mlp(8192)
        assert admissible_splits(net.profile()) == []


class TestEvaluatePartitioned:
    def test_never_worse_than_full(self, wireless_scaled):
        # The optimal rule includes "no split", so partitioned implant
        # power is at most the full on-implant power.
        for soc in wireless_scaled:
            for workload in Workload:
                full = evaluate_comp_centric(soc, workload, 2048)
                part = evaluate_comp_centric(soc, workload, 2048,
                                             rule="optimal")
                assert part.total_power_w <= full.total_power_w * (1 + 1e-9)

    def test_mlp_split_reduces_compute(self, bisc):
        full = evaluate_comp_centric(bisc, Workload.MLP, 2048)
        part = evaluate_comp_centric(bisc, Workload.MLP, 2048, rule="optimal")
        assert part.split_layer is not None
        assert part.comp_power_w < full.comp_power_w

    def test_split_increases_comm(self, bisc):
        full = evaluate_comp_centric(bisc, Workload.MLP, 2048)
        part = evaluate_comp_centric(bisc, Workload.MLP, 2048, rule="optimal")
        assert part.comm_power_w > full.comm_power_w

    def test_dncnn_falls_back_to_full_network(self, bisc):
        part = evaluate_comp_centric(bisc, Workload.DNCNN, 2048,
                                     rule="optimal")
        assert part.split_layer is None
        assert part.transmitted_values == 40

    def test_earliest_rule_supported(self, bisc):
        part = evaluate_comp_centric(bisc, Workload.MLP, 2048, rule="earliest")
        assert part.split_layer is not None

    def test_rejects_unknown_rule(self, bisc):
        with pytest.raises(ValueError):
            evaluate_comp_centric(bisc, Workload.MLP, 2048, rule="latest")


class TestFig11Claims:
    def test_mlp_gains_on_flagships(self, wireless_scaled):
        # Paper: layer reduction enables ~20 % more channels on average
        # for the MLP.
        gains = [partitioning_gain(s, Workload.MLP).gain_ratio
                 for s in wireless_scaled[:2]]
        assert all(g >= 1.1 for g in gains)

    def test_mlp_average_gain_near_20pct(self, wireless_scaled):
        gains = [partitioning_gain(s, Workload.MLP).gain_ratio
                 for s in wireless_scaled]
        avg = sum(gains) / len(gains)
        assert 1.10 <= avg <= 1.35

    def test_mlp_best_gain_substantial(self, wireless_scaled):
        gains = [partitioning_gain(s, Workload.MLP).gain_ratio
                 for s in wireless_scaled]
        assert max(gains) >= 1.3

    def test_dncnn_no_benefit(self, wireless_scaled):
        # Paper: the DN-CNN shows no benefit from layer reduction.
        for soc in wireless_scaled:
            gain = partitioning_gain(soc, Workload.DNCNN)
            assert gain.gain_ratio == pytest.approx(1.0), soc.name

    def test_partitioned_max_channels_never_lower(self, wireless_scaled):
        for soc in wireless_scaled[:3]:
            full = max_feasible_channels(soc, Workload.MLP)
            part = max_feasible_channels(soc, Workload.MLP,
                                         rule="optimal")
            assert part >= full, soc.name

    def test_gain_ratio_zero_when_never_fits(self, bisc):
        gain = PartitioningGain(soc_name="x", workload=Workload.MLP,
                                max_channels_full=0,
                                max_channels_partitioned=0)
        assert gain.gain_ratio == 0.0

"""Tests for the Section 5.3 computation-centric analysis (Fig. 10)."""

import math

import pytest

from repro.accel.schedule import best_schedule
from repro.accel.tech import TECH_12NM, TECH_45NM
from repro.core.comp_centric import (
    Workload,
    admissible_splits,
    evaluate_comp_centric,
    implant_options,
    max_feasible_channels,
    network_profile,
)
from repro.dnn.models import build_speech_dncnn, build_speech_mlp


class TestBuildWorkload:
    def test_both_workloads_build(self):
        for build in (build_speech_mlp, build_speech_dncnn):
            net = build(1024)
            assert net.output_values == 40

    def test_workload_scales_with_channels(self):
        small = build_speech_mlp(512).total_macs
        large = build_speech_mlp(1024).total_macs
        assert large > 2 * small


class TestFig10Claims:
    def test_flagship_socs_integrate_both_dnns_at_1024(self,
                                                       wireless_scaled):
        # Paper: SoCs 1 and 2 can integrate the DN-CNN at 1024 channels.
        for soc in wireless_scaled[:2]:
            for workload in Workload:
                assert evaluate_comp_centric(soc, workload, 1024).fits, \
                    (soc.name, workload)

    def test_most_socs_cannot_integrate_dncnn_at_1024(self,
                                                      wireless_scaled):
        fitting = [s.name for s in wireless_scaled
                   if evaluate_comp_centric(s, Workload.DNCNN, 1024).fits]
        assert len(fitting) <= 3

    def test_small_budget_socs_exceed_by_factors(self, wireless_scaled):
        # Paper: some SoCs exceed the budget ~5x for the DN-CNN at 1024.
        ratios = [evaluate_comp_centric(s, Workload.DNCNN, 1024).power_ratio
                  for s in wireless_scaled]
        assert any(r > 4.0 for r in ratios)

    def test_avg_max_channels_mlp_near_1800(self, wireless_scaled):
        # Paper: average maximum channel count ~1800 for the MLP among
        # SoCs that accommodate it.
        fitting = [s for s in wireless_scaled
                   if evaluate_comp_centric(s, Workload.MLP, 1024).fits]
        maxima = [max_feasible_channels(s, Workload.MLP) for s in fitting]
        avg = sum(maxima) / len(maxima)
        assert 1300 <= avg <= 2100

    def test_avg_max_channels_dncnn_near_1400(self, wireless_scaled):
        fitting = [s for s in wireless_scaled
                   if evaluate_comp_centric(s, Workload.DNCNN, 1024).fits]
        maxima = [max_feasible_channels(s, Workload.DNCNN) for s in fitting]
        avg = sum(maxima) / len(maxima)
        assert 1100 <= avg <= 1700

    def test_dncnn_limit_below_mlp(self, bisc):
        # The heavier DN-CNN crosses the budget before the MLP.
        assert (max_feasible_channels(bisc, Workload.DNCNN)
                < max_feasible_channels(bisc, Workload.MLP))

    def test_no_soc_reaches_twice_standard(self, wireless_scaled):
        # Headline: even the MLP cannot scale to 2x the standard (2048)
        # beyond a narrow margin; none should reach 4096.
        for soc in wireless_scaled:
            assert max_feasible_channels(soc, Workload.MLP) < 4096, soc.name


class TestEvaluation:
    def test_power_ratio_grows_with_channels(self, bisc):
        sweep = [evaluate_comp_centric(bisc, Workload.MLP, n)
                 for n in (1024, 2048, 4096)]
        ratios = [p.power_ratio for p in sweep]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_total_power_is_sum_of_parts(self, bisc):
        point = evaluate_comp_centric(bisc, Workload.MLP, 1024)
        assert point.total_power_w == pytest.approx(
            point.sensing_power_w + point.comp_power_w
            + point.comm_power_w)

    def test_comm_power_is_small_output_stream(self, bisc):
        # Only 40 output values are transmitted: comm << comp.
        point = evaluate_comp_centric(bisc, Workload.MLP, 1024)
        assert point.comm_power_w < 0.15 * point.comp_power_w

    def test_better_tech_reduces_power(self, bisc):
        base = evaluate_comp_centric(bisc, Workload.MLP, 1024)
        scaled = evaluate_comp_centric(bisc, Workload.MLP, 1024,
                                       tech=TECH_12NM)
        assert scaled.comp_power_w < base.comp_power_w

    def test_infeasible_deadline_gives_infinite_power(self, bisc):
        # A network whose MACseq cannot fit one sampling period at all.
        point = evaluate_comp_centric(bisc, Workload.MLP, 200_000)
        assert math.isinf(point.comp_power_w) or point.power_ratio > 1.0

    def test_rejects_non_positive_channels(self, bisc):
        with pytest.raises(ValueError):
            evaluate_comp_centric(bisc, Workload.MLP, 0)


class TestImplantOptions:
    @pytest.mark.parametrize("workload", list(Workload))
    def test_every_head_matches_its_own_schedule(self, workload,
                                                 wireless_scaled):
        # The one-pass pricing against best_schedule run on each head,
        # every 16th n' a ladder may probe, at every wireless deadline.
        # The memo is bypassed so the scan leaves it as it was.
        deadlines = sorted({1.0 / soc.sampling_hz
                            for soc in wireless_scaled})
        price = implant_options.__wrapped__
        for n_channels in range(16, 16384 + 1, 16):
            profile = network_profile(workload, n_channels)
            splits = admissible_splits(profile)
            ends = [len(profile.profiles)] + splits
            transmitted = ([profile.output_values]
                           + [profile.sizes[split - 1] for split in splits])
            for tech in (TECH_45NM, TECH_12NM):
                for deadline in deadlines:
                    expected = []
                    for end in ends:
                        schedule = best_schedule(profile.profiles[:end],
                                                 deadline, tech)
                        expected.append(math.inf if schedule is None
                                        else schedule.power_w(tech))
                    options = price(workload, n_channels, deadline, tech)
                    assert options == tuple(zip([None] + splits, expected,
                                                transmitted)), (
                        n_channels, deadline, tech.name)

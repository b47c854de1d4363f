"""Tests for the Section 5.1 naive / high-margin analysis (Figs. 5-6)."""

import pytest

from repro.core.comm_centric import (
    DesignHypothesis,
    budget_crossing_channels,
    evaluate_comm_centric,
)

SWEEP = [1024, 2048, 4096, 8192]


class TestNaiveDesign:
    def test_power_ratio_constant(self, wireless_scaled):
        # Fig. 5 claim: the naive ratio does not change with n.
        for soc in wireless_scaled:
            points = [evaluate_comm_centric(soc, n, DesignHypothesis.NAIVE)
                      for n in SWEEP]
            ratios = [p.power_ratio for p in points]
            assert max(ratios) - min(ratios) < 1e-12, soc.name

    def test_always_within_budget(self, wireless_scaled):
        for soc in wireless_scaled:
            for n in SWEEP:
                point = evaluate_comm_centric(soc, n, DesignHypothesis.NAIVE)
                assert point.within_budget, soc.name

    def test_sensing_fraction_flat(self, bisc):
        points = [evaluate_comm_centric(bisc, n, DesignHypothesis.NAIVE)
                  for n in SWEEP]
        fractions = [p.sensing_area_fraction for p in points]
        assert max(fractions) - min(fractions) < 1e-12

    def test_never_crosses_budget(self, wireless_scaled):
        for soc in wireless_scaled:
            assert budget_crossing_channels(
                soc, DesignHypothesis.NAIVE) is None


class TestHighMarginDesign:
    def test_power_eventually_exceeds_budget(self, wireless_scaled):
        # Fig. 5 claim: P_soc eventually exceeds P_budget for all SoCs.
        for soc in wireless_scaled:
            crossing = budget_crossing_channels(
                soc, DesignHypothesis.HIGH_MARGIN)
            assert crossing is not None, soc.name

    def test_crossings_within_plotted_range(self, wireless_scaled):
        for soc in wireless_scaled:
            crossing = budget_crossing_channels(
                soc, DesignHypothesis.HIGH_MARGIN)
            assert 1024 < crossing <= 8192, soc.name

    def test_crossing_matches_pointwise_evaluation(self, bisc):
        crossing = budget_crossing_channels(bisc,
                                            DesignHypothesis.HIGH_MARGIN)
        before = evaluate_comm_centric(bisc, crossing - 64,
                                       DesignHypothesis.HIGH_MARGIN)
        after = evaluate_comm_centric(bisc, crossing + 64,
                                      DesignHypothesis.HIGH_MARGIN)
        assert before.within_budget
        assert not after.within_budget

    def test_sensing_fraction_grows_toward_one(self, wireless_scaled):
        # Fig. 6 claim: normalized sensing area grows and dominates.
        for soc in wireless_scaled:
            points = [evaluate_comm_centric(soc, n,
                                            DesignHypothesis.HIGH_MARGIN)
                      for n in SWEEP]
            fractions = [p.sensing_area_fraction for p in points]
            assert all(a < b for a, b in zip(fractions, fractions[1:]))
            assert fractions[-1] > 0.8, soc.name

    def test_non_sensing_area_frozen(self, bisc):
        small = evaluate_comm_centric(bisc, 1024,
                                      DesignHypothesis.HIGH_MARGIN)
        large = evaluate_comm_centric(bisc, 8192,
                                      DesignHypothesis.HIGH_MARGIN)
        non_sensing_small = small.total_area_m2 - small.sensing_area_m2
        non_sensing_large = large.total_area_m2 - large.sensing_area_m2
        assert non_sensing_small == pytest.approx(non_sensing_large)

    def test_total_power_same_as_naive(self, bisc):
        # The hypotheses differ in area scaling, not power.
        naive = evaluate_comm_centric(bisc, 4096, DesignHypothesis.NAIVE)
        margin = evaluate_comm_centric(bisc, 4096,
                                       DesignHypothesis.HIGH_MARGIN)
        assert naive.total_power_w == pytest.approx(margin.total_power_w)


class TestAnchor:
    def test_anchor_matches_scaled_totals(self, bisc):
        point = evaluate_comm_centric(bisc, 1024, DesignHypothesis.NAIVE)
        assert point.total_power_w == pytest.approx(bisc.power_w)
        assert point.total_area_m2 == pytest.approx(bisc.area_m2)

    def test_power_split_fractions(self, bisc):
        point = evaluate_comm_centric(bisc, 1024, DesignHypothesis.NAIVE)
        assert point.non_sensing_power_w / point.total_power_w == \
            pytest.approx(bisc.record.comm_power_fraction)

    def test_rejects_downscaling(self, bisc):
        with pytest.raises(ValueError):
            evaluate_comm_centric(bisc, 512, DesignHypothesis.NAIVE)

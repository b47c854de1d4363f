"""Tests for the Section 5.2 QAM analysis (Fig. 7)."""

import math

import pytest

from repro.core.qam_design import (
    bits_per_symbol_for,
    evaluate_qam_design,
    max_channels_at_efficiency,
)
from repro.experiments import fig7
from repro.link import ber


class TestBitsPerSymbol:
    def test_paper_schedule(self):
        # Section 5.2: 1 bit for n <= 1024, 2 for 1024 < n <= 2048, ...
        assert bits_per_symbol_for(1024) == 1
        assert bits_per_symbol_for(1025) == 2
        assert bits_per_symbol_for(2048) == 2
        assert bits_per_symbol_for(2049) == 3
        assert bits_per_symbol_for(6144) == 6

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bits_per_symbol_for(0)


class TestEvaluation:
    def test_bisc_near_15pct_at_1024(self, bisc):
        # Fig. 7: ~15 % efficiency is the current standard at 1024 ch.
        point = evaluate_qam_design(bisc, 1024)
        assert point.min_efficiency == pytest.approx(0.07, abs=0.05)

    def test_min_efficiency_increases_with_channels(self, bisc):
        sweep = [evaluate_qam_design(bisc, n)
                 for n in (1024, 2048, 3072, 4096)]
        effs = [p.min_efficiency for p in sweep]
        assert all(a < b for a, b in zip(effs, effs[1:]))

    def test_energy_steps_at_block_boundaries(self, bisc):
        # Crossing a 1024 block adds one bit/symbol and raises Eb.
        at_3072 = evaluate_qam_design(bisc, 3072)
        at_3136 = evaluate_qam_design(bisc, 3136)
        assert at_3136.bits_per_symbol == at_3072.bits_per_symbol + 1
        assert (at_3136.ideal_energy_per_bit_j
                > at_3072.ideal_energy_per_bit_j)

    def test_infeasible_when_sensing_exceeds_budget(self, neuralink):
        # Neuralink's sensing power density exceeds the budget slope, so
        # far beyond the crossing sensing alone eats the budget.
        point = evaluate_qam_design(neuralink, 30 * 1024)
        assert math.isinf(point.min_efficiency)
        assert not point.feasible

    def test_even_ideal_qam_cannot_scale_indefinitely(self,
                                                      wireless_scaled):
        # Fig. 7 headline: implants cannot transmit full neural data at
        # scale even with ideal modulation.
        for soc in wireless_scaled:
            assert max_channels_at_efficiency(soc, 1.0) < 8192, soc.name

    def test_rejects_downscaling(self, bisc):
        with pytest.raises(ValueError):
            evaluate_qam_design(bisc, 512)


class TestHeadlineMultipliers:
    def test_20pct_doubles_for_realizable_socs(self, wireless_scaled):
        # Fig. 7: at 20 % efficiency, SoCs could double current channel
        # counts on average.  "Realizable" = feasible at ~15 % today.
        realizable = [s for s in wireless_scaled
                      if evaluate_qam_design(s, 1024).min_efficiency <= 0.15]
        assert len(realizable) >= 3
        maxima = [max_channels_at_efficiency(s, 0.20) for s in realizable]
        avg = sum(maxima) / len(maxima)
        assert avg == pytest.approx(2048, rel=0.15)

    def test_100pct_quadruples_for_realizable_socs(self, wireless_scaled):
        realizable = [s for s in wireless_scaled
                      if evaluate_qam_design(s, 1024).min_efficiency <= 0.15]
        maxima = [max_channels_at_efficiency(s, 1.0) for s in realizable]
        avg = sum(maxima) / len(maxima)
        assert avg == pytest.approx(4096, rel=0.20)

    def test_higher_efficiency_more_channels(self, bisc):
        assert (max_channels_at_efficiency(bisc, 1.0)
                > max_channels_at_efficiency(bisc, 0.2)
                > max_channels_at_efficiency(bisc, 0.1))

    def test_rejects_bad_efficiency(self, bisc):
        with pytest.raises(ValueError):
            max_channels_at_efficiency(bisc, 0.0)
        with pytest.raises(ValueError):
            max_channels_at_efficiency(bisc, 1.5)


class TestLazyScan:
    @pytest.mark.parametrize("efficiency", [0.1, 0.2, 1.0])
    def test_matches_a_full_grid_scan(self, wireless_scaled, efficiency):
        # Every grid point evaluated, then the end of the first feasible
        # run read off the whole list.
        for soc in wireless_scaled:
            grid = list(range(soc.n_channels, 32768 + 1, 64))
            fits = [evaluate_qam_design(soc, n).min_efficiency <= efficiency
                    for n in grid]
            expected = 0
            if True in fits:
                end = fits.index(True)
                while end + 1 < len(fits) and fits[end + 1]:
                    end += 1
                expected = grid[end]
            assert max_channels_at_efficiency(soc, efficiency) == expected, (
                soc.name, efficiency)

    def test_fig7_solves_only_the_orders_it_reaches(self):
        # The sweep reaches b = 6 (6144 channels) and no frontier scan
        # goes past it; a full-grid scan to 32768 channels solved all 32.
        ber._solve_ebn0.cache_clear()
        fig7.run()
        assert ber._solve_ebn0.cache_info().misses <= 6

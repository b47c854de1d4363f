"""Tests for Section 4.1/4.2 scaling — pinning the Fig. 4 anchor points."""

import pytest

from repro.core.scaling import scale_to_standard, sensing_throughput
from repro.core.socs import TABLE1, soc_by_number
from repro.units import mbps, to_mm2, to_mw, to_mw_per_cm2


class TestFig4Anchors:
    """Each design scaled to 1024 channels must land where Fig. 4 puts it."""

    def test_bisc_unchanged(self):
        scaled = scale_to_standard(soc_by_number(1))
        assert to_mm2(scaled.area_m2) == pytest.approx(144.0)
        assert to_mw(scaled.power_w) == pytest.approx(38.88)

    def test_gilhotra_nominal(self):
        scaled = scale_to_standard(soc_by_number(2))
        assert to_mm2(scaled.area_m2) == pytest.approx(144.0)
        assert to_mw_per_cm2(scaled.power_density_w_m2) == pytest.approx(
            33.0)

    def test_shen_eq1(self):
        # sqrt(1024/16) = 8x area, 64x power.
        scaled = scale_to_standard(soc_by_number(4))
        assert to_mm2(scaled.area_m2) == pytest.approx(1.34 * 8)
        assert to_mw(scaled.power_w) == pytest.approx(
            2.2 * 1.34e-2 * 64, rel=1e-3)

    def test_muller_matches_paper_narrative(self):
        # Eq. 1 alone gives ~10 mW/cm^2; the 2x area correction gives 20.
        scaled = scale_to_standard(soc_by_number(5))
        assert to_mw_per_cm2(scaled.power_density_w_m2) == pytest.approx(
            20.0, rel=0.01)

    def test_wimagine_matches_paper_narrative(self):
        # 2x area + 50x power/area reductions -> ~30 mW/cm^2 at ~78 mm^2.
        scaled = scale_to_standard(soc_by_number(7))
        assert to_mw_per_cm2(scaled.power_density_w_m2) == pytest.approx(
            30.4, rel=0.01)
        assert to_mm2(scaled.area_m2) == pytest.approx(78.4, rel=0.01)

    def test_wimagine_spacing_near_200um(self):
        scaled = scale_to_standard(soc_by_number(7))
        spacing_um = (scaled.sensing_area_anchor_m2 / 1024) ** 0.5 * 1e6
        assert 150 < spacing_um < 320

    def test_halo_star_sits_below_budget(self):
        scaled = scale_to_standard(soc_by_number(8))
        assert scaled.name == "HALO*"
        density = to_mw_per_cm2(scaled.power_density_w_m2)
        assert density <= 40.0

    def test_neuropixels_density_preserved_by_linear_scaling(self):
        scaled = scale_to_standard(soc_by_number(9))
        assert to_mw_per_cm2(scaled.power_density_w_m2) == pytest.approx(
            21.0)
        assert to_mm2(scaled.area_m2) == pytest.approx(22 * 1024 / 384)

    def test_all_designs_safe_at_1024(self):
        # The Fig. 4 claim: every scaled design is below the budget line.
        for record in TABLE1:
            scaled = scale_to_standard(record)
            assert scaled.power_w <= scaled.budget_w() * (1 + 1e-9), \
                scaled.name


class TestScaledSoCProperties:
    def test_sensing_plus_non_sensing_area(self, bisc):
        assert bisc.sensing_area_anchor_m2 + bisc.non_sensing_area_m2 == \
            pytest.approx(bisc.area_m2)

    def test_sensing_plus_comm_power(self, bisc):
        assert bisc.sensing_power_anchor_w + bisc.comm_power_anchor_w == \
            pytest.approx(bisc.power_w)

    def test_eq5_linear_power(self, bisc):
        assert bisc.sensing_power_w(2048) == pytest.approx(
            2 * bisc.sensing_power_w(1024))

    def test_eq5_linear_area(self, bisc):
        assert bisc.sensing_area_m2(4096) == pytest.approx(
            4 * bisc.sensing_area_m2(1024))

    def test_eq6_throughput(self, bisc):
        # BISC: 1024 ch * 10 b * 8 kHz = 81.92 Mbps.
        assert bisc.sensing_throughput_bps() == pytest.approx(mbps(81.92))

    def test_implied_energy_per_bit_plausible(self, all_scaled):
        for soc in all_scaled:
            eb = soc.implied_energy_per_bit_j
            assert 1e-13 < eb < 1e-9  # sub-pJ to sub-nJ per bit

    def test_budget_uses_anchor_area_by_default(self, bisc):
        assert bisc.budget_w() == pytest.approx(bisc.area_m2 * 400.0)

    def test_rejects_bad_channels(self, bisc):
        with pytest.raises(ValueError):
            bisc.sensing_power_w(0)


class TestSensingThroughput:
    def test_paper_example(self):
        # Section 5.1: n=1024, d=10, f=8 kHz -> ~82 Mbps.
        assert sensing_throughput(1024, 10, 8e3) == pytest.approx(81.92e6)

    def test_linear_in_channels(self):
        assert sensing_throughput(2048, 10, 8e3) == pytest.approx(
            2 * sensing_throughput(1024, 10, 8e3))

    def test_linear_in_bits(self):
        assert sensing_throughput(1024, 16, 8e3) == pytest.approx(
            1.6 * sensing_throughput(1024, 10, 8e3))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            sensing_throughput(0, 10, 8e3)
        with pytest.raises(ValueError):
            sensing_throughput(10, 0, 8e3)
        with pytest.raises(ValueError):
            sensing_throughput(10, 10, 0.0)

"""Tests for the Eq. 3 power budget."""

import pytest

from repro.thermal.budget import (
    SafetyReport,
    assess,
    power_budget,
    power_density,
)
from repro.units import mm2, mw, mw_per_cm2


class TestPowerDensity:
    def test_bisc_anchor(self):
        # 38.9 mW over 144 mm^2 -> 27 mW/cm^2.
        density = power_density(mw(38.88), mm2(144))
        assert density == pytest.approx(mw_per_cm2(27.0))

    def test_rejects_zero_area(self):
        with pytest.raises(ValueError):
            power_density(1.0, 0.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            power_density(-1.0, 1.0)


class TestPowerBudget:
    def test_eq3_for_144mm2(self):
        # 144 mm^2 * 40 mW/cm^2 = 57.6 mW.
        assert power_budget(mm2(144)) == pytest.approx(mw(57.6))

    def test_linear_in_area(self):
        assert power_budget(mm2(288)) == pytest.approx(
            2 * power_budget(mm2(144)))

    def test_custom_limit(self):
        assert power_budget(1e-4, 800.0) == pytest.approx(0.08)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            power_budget(0.0)
        with pytest.raises(ValueError):
            power_budget(1.0, 0.0)


class TestSafety:
    def test_safe_design(self):
        assert assess(mw(38.88), mm2(144)).safe

    def test_unsafe_design(self):
        # HALO as reported: 1500 mW/cm^2.
        assert not assess(mw(15.0), mm2(1.0)).safe

    def test_boundary_is_safe(self):
        assert assess(mw(57.6), mm2(144)).safe

    def test_assess_margins(self):
        report = assess(mw(38.88), mm2(144))
        assert isinstance(report, SafetyReport)
        assert report.safe
        assert report.margin_w == pytest.approx(mw(57.6 - 38.88))

    def test_assess_unsafe_negative_margin(self):
        report = assess(mw(15.0), mm2(1.0))
        assert not report.safe
        assert report.margin_w < 0

    def test_describe_contains_verdict(self):
        assert "SAFE" in assess(mw(1.0), mm2(100)).describe()
        assert "UNSAFE" in assess(mw(100.0), mm2(1)).describe()

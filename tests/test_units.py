"""Unit-conversion and constant tests."""

import math

import pytest

from repro import units


class TestPowerConversions:
    def test_mw_round_trip(self):
        assert units.to_mw(units.mw(38.9)) == pytest.approx(38.9)

    def test_uw_magnitude(self):
        assert units.uw(5.0) == pytest.approx(5e-6)

    def test_nw_is_small(self):
        assert units.nw(1.0) == pytest.approx(1e-9)

    def test_mw_magnitude(self):
        assert units.mw(1.0) == pytest.approx(1e-3)


class TestAreaConversions:
    def test_mm2_round_trip(self):
        assert units.to_mm2(units.mm2(144.0)) == pytest.approx(144.0)

    def test_cm2_round_trip(self):
        assert units.to_cm2(units.cm2(1.44)) == pytest.approx(1.44)

    def test_mm2_vs_cm2(self):
        assert units.cm2(1.0) == pytest.approx(units.mm2(100.0))


class TestDensity:
    def test_safe_density_value(self):
        # 40 mW/cm^2 == 400 W/m^2.
        assert units.SAFE_POWER_DENSITY == pytest.approx(400.0)

    def test_density_round_trip(self):
        assert units.to_mw_per_cm2(units.mw_per_cm2(27.0)) == pytest.approx(
            27.0)


class TestEnergyAndRates:
    def test_khz(self):
        assert units.khz(8.0) == pytest.approx(8000.0)

    def test_mbps_round_trip(self):
        assert units.to_mbps(units.mbps(82.0)) == pytest.approx(82.0)

    def test_time_units(self):
        assert units.ns(2.0) == pytest.approx(2e-9)
        assert units.ms(4.0) == pytest.approx(4e-3)


class TestDecibels:
    def test_db_to_linear_zero(self):
        assert units.db_to_linear(0.0) == pytest.approx(1.0)

    def test_db_to_linear_80(self):
        assert units.db_to_linear(80.0) == pytest.approx(1e8)

    def test_linear_to_db_round_trip(self):
        assert units.linear_to_db(units.db_to_linear(13.5)) == pytest.approx(
            13.5)

    def test_linear_to_db_rejects_non_positive(self):
        with pytest.raises(ValueError):
            units.linear_to_db(0.0)
        with pytest.raises(ValueError):
            units.linear_to_db(-1.0)


class TestThermalNoise:
    def test_body_temperature_floor(self):
        n0 = units.thermal_noise_density()
        assert n0 == pytest.approx(units.BOLTZMANN * 310.0)

    def test_noise_figure_scales(self):
        base = units.thermal_noise_density(noise_figure_db=0.0)
        with_nf = units.thermal_noise_density(noise_figure_db=10.0)
        assert with_nf == pytest.approx(10.0 * base)

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValueError):
            units.thermal_noise_density(temperature_k=0.0)

    def test_constants_are_sane(self):
        assert math.isclose(units.BOLTZMANN, 1.380649e-23)
        assert units.TARGET_CHANNEL_SPACING == pytest.approx(20e-6)

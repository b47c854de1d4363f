"""Tests for electrode-array geometry and volumetric efficiency."""

import math

import pytest

from repro.ni.geometry import (
    ArrayGeometry,
    GridArray,
    channel_spacing,
    volumetric_efficiency,
)
from repro.units import mm2


class TestChannelSpacing:
    def test_square_lattice(self):
        # 1024 channels on 144 mm^2 -> ~375 um spacing.
        spacing = channel_spacing(mm2(144), 1024)
        assert spacing == pytest.approx(math.sqrt(144e-6 / 1024))

    def test_target_spacing_requires_density(self):
        # One channel per 20 um x 20 um cell.
        spacing = channel_spacing((20e-6) ** 2 * 1024, 1024)
        assert spacing == pytest.approx(20e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            channel_spacing(0.0, 10)
        with pytest.raises(ValueError):
            channel_spacing(1.0, 0)


class TestVolumetricEfficiency:
    def test_half_sensing(self):
        assert volumetric_efficiency(1.0, 2.0) == pytest.approx(0.5)

    def test_full_sensing(self):
        assert volumetric_efficiency(2.0, 2.0) == pytest.approx(1.0)

    def test_rejects_sensing_above_total(self):
        with pytest.raises(ValueError):
            volumetric_efficiency(3.0, 2.0)

    def test_rejects_non_positive_total(self):
        with pytest.raises(ValueError):
            volumetric_efficiency(1.0, 0.0)


class TestArrayGeometry:
    def test_total_area(self):
        geo = ArrayGeometry(n_channels=100, sensing_area_m2=1e-4,
                            overhead_area_m2=1e-5)
        assert geo.total_area_m2 == pytest.approx(1.1e-4)

    def test_volumetric_efficiency_property(self):
        geo = ArrayGeometry(n_channels=100, sensing_area_m2=3e-4,
                            overhead_area_m2=1e-4)
        assert geo.volumetric_efficiency == pytest.approx(0.75)

    def test_meets_spacing_target(self):
        dense = ArrayGeometry(n_channels=10000,
                              sensing_area_m2=(20e-6) ** 2 * 10000,
                              overhead_area_m2=0.0)
        sparse = ArrayGeometry(n_channels=4, sensing_area_m2=1e-4,
                               overhead_area_m2=0.0)
        assert dense.meets_spacing_target()
        assert not sparse.meets_spacing_target()

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            ArrayGeometry(n_channels=0, sensing_area_m2=1.0,
                          overhead_area_m2=0.0)
        with pytest.raises(ValueError):
            ArrayGeometry(n_channels=1, sensing_area_m2=1.0,
                          overhead_area_m2=-1.0)


class TestGridArray:
    def test_channel_count(self):
        grid = GridArray(rows=32, cols=32, pitch_m=50e-6)
        assert grid.n_channels == 1024

    def test_sensing_area(self):
        grid = GridArray(rows=10, cols=10, pitch_m=100e-6)
        assert grid.sensing_area_m2 == pytest.approx(100 * (100e-6) ** 2)

    def test_channel_positions(self):
        grid = GridArray(rows=2, cols=3, pitch_m=1.0)
        assert grid.channel_position(0) == pytest.approx((0.5, 0.5))
        assert grid.channel_position(5) == pytest.approx((2.5, 1.5))

    def test_position_out_of_range(self):
        grid = GridArray(rows=2, cols=2, pitch_m=1.0)
        with pytest.raises(ValueError):
            grid.channel_position(4)

    def test_spacing_equals_pitch(self):
        grid = GridArray(rows=8, cols=8, pitch_m=20e-6)
        assert grid.spacing_m == pytest.approx(20e-6)

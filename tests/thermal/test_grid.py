"""Tests for the 2-D chip thermal solver."""

import numpy as np
import pytest

from repro.thermal.grid import ChipThermalGrid
from repro.thermal.model import TissueThermalModel


@pytest.fixture(scope="module")
def grid():
    return ChipThermalGrid(nx=24, ny=24)


BISC_POWER_W = 38.9e-3


class TestUniformCase:
    def test_matches_1d_model_exactly(self, grid):
        # With uniform power the lateral terms cancel and every cell
        # must sit at the 1-D prediction q'' / h_eff.
        field = grid.solve(grid.uniform_map(BISC_POWER_W))
        density = BISC_POWER_W / (grid.width_m * grid.height_m)
        expected = TissueThermalModel().steady_state_rise_k(density)
        np.testing.assert_allclose(field, expected, rtol=1e-9)

    def test_energy_balance(self, grid):
        # Total heat into tissue equals total dissipated power.
        field = grid.solve(grid.uniform_map(BISC_POWER_W))
        h_eff = grid.tissue.effective_h_w_m2k
        out = float(np.sum(field) * h_eff * grid.cell_area_m2)
        assert out == pytest.approx(BISC_POWER_W, rel=1e-9)

    def test_zero_power_zero_field(self, grid):
        field = grid.solve(grid.uniform_map(0.0))
        np.testing.assert_allclose(field, 0.0, atol=1e-15)


class TestHotspotCase:
    def test_hotspot_peak_exceeds_uniform(self, grid):
        uniform = grid.solve(grid.uniform_map(BISC_POWER_W))
        hotspot = grid.solve(grid.hotspot_map(BISC_POWER_W, 0.05))
        assert hotspot.max() > uniform.max()

    def test_mean_rise_independent_of_distribution(self, grid):
        # Same total power -> same total heat flux -> same mean rise.
        uniform = grid.solve(grid.uniform_map(BISC_POWER_W))
        hotspot = grid.solve(grid.hotspot_map(BISC_POWER_W, 0.05))
        assert hotspot.mean() == pytest.approx(uniform.mean(), rel=1e-9)

    def test_energy_balance_with_hotspot(self, grid):
        field = grid.solve(grid.hotspot_map(BISC_POWER_W, 0.05))
        h_eff = grid.tissue.effective_h_w_m2k
        out = float(np.sum(field) * h_eff * grid.cell_area_m2)
        assert out == pytest.approx(BISC_POWER_W, rel=1e-9)

    def test_thicker_die_spreads_better(self):
        # The Section 3.2 assumption improves with sheet conductance:
        # a standard-thickness die flattens hotspots far better than the
        # 25 um thinned die flexible implants use.
        thin = ChipThermalGrid(nx=24, ny=24, thickness_m=25e-6)
        thick = ChipThermalGrid(nx=24, ny=24, thickness_m=300e-6)
        assert (thick.hotspot_ratio(BISC_POWER_W)
                < thin.hotspot_ratio(BISC_POWER_W))

    def test_hotspot_ratio_falls_with_die_thickness(self):
        # The Section 3.2 uniform-dissipation assumption, quantified: a
        # worst-case concentrated power map flattens monotonically with
        # thickness, and a standard 300 um die keeps the hotspot within
        # 2x of uniform.
        ratios = [ChipThermalGrid(nx=24, ny=24,
                                  thickness_m=um * 1e-6).hotspot_ratio(
                                      BISC_POWER_W, 0.05)
                  for um in (10, 25, 100, 300)]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < 2.0

    def test_uniform_rise_independent_of_die_thickness(self):
        # The uniform field is the 1-D model the budget relies on, so
        # die thickness must not move it.
        rises = [float(grid.solve(grid.uniform_map(BISC_POWER_W)).mean())
                 for grid in (ChipThermalGrid(nx=24, ny=24,
                                              thickness_m=um * 1e-6)
                              for um in (10, 300))]
        assert abs(rises[0] - rises[1]) < 1e-9

    def test_hotspot_ratio_above_one(self, grid):
        assert grid.hotspot_ratio(BISC_POWER_W) > 1.0

    def test_wider_hotspot_lower_ratio(self, grid):
        concentrated = grid.hotspot_ratio(BISC_POWER_W, 0.02)
        spread = grid.hotspot_ratio(BISC_POWER_W, 0.5)
        assert spread < concentrated


class TestValidation:
    def test_rejects_wrong_shape(self, grid):
        with pytest.raises(ValueError):
            grid.solve(np.zeros((3, 3)))

    def test_rejects_negative_power(self, grid):
        bad = grid.uniform_map(1e-3)
        bad[0, 0] = -1.0
        with pytest.raises(ValueError):
            grid.solve(bad)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ChipThermalGrid(nx=1)
        with pytest.raises(ValueError):
            ChipThermalGrid(thickness_m=0.0)

    def test_rejects_bad_hotspot_fraction(self, grid):
        with pytest.raises(ValueError):
            grid.hotspot_map(1e-3, 0.0)


class TestAssemblyParity:
    """The vectorized coo assembly must equal the reference loop bit for
    bit — same matrix, same ordering of the implied linear system."""

    @pytest.mark.parametrize("power", ["uniform", "hotspot"])
    def test_assemble_matches_reference(self, grid, power):
        power_map = (grid.uniform_map(BISC_POWER_W) if power == "uniform"
                     else grid.hotspot_map(BISC_POWER_W))
        fast = grid._assemble(power_map)
        slow = grid._assemble_reference(power_map)
        assert (fast[0] != slow[0]).nnz == 0
        np.testing.assert_array_equal(fast[1], slow[1])

    def test_assemble_matches_on_asymmetric_grid(self):
        grid = ChipThermalGrid(nx=7, ny=13)
        power_map = grid.hotspot_map(5e-3, 0.3)
        fast = grid._assemble(power_map)
        slow = grid._assemble_reference(power_map)
        assert (fast[0] != slow[0]).nnz == 0
        np.testing.assert_array_equal(fast[1], slow[1])

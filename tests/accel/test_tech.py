"""Tests for the technology library (paper-published MAC parameters)."""

import pytest

from repro.accel.tech import (
    TECH_12NM,
    TECH_45NM,
    TECH_130NM,
    TechnologyNode,
)


class TestPublishedNodes:
    def test_45nm_matches_paper(self):
        # Section 5.3, Results: tMAC = 2 ns, PMAC = 0.05 mW.
        assert TECH_45NM.t_mac_s == pytest.approx(2e-9)
        assert TECH_45NM.p_mac_w == pytest.approx(0.05e-3)

    def test_12nm_matches_paper(self):
        # Section 6.2: tMAC = 1 ns, PMAC = 0.026 mW.
        assert TECH_12NM.t_mac_s == pytest.approx(1e-9)
        assert TECH_12NM.p_mac_w == pytest.approx(0.026e-3)

    def test_energy_per_mac_improves_with_node(self):
        assert (TECH_12NM.energy_per_mac_j < TECH_45NM.energy_per_mac_j
                < TECH_130NM.energy_per_mac_j)

    def test_45nm_energy_value(self):
        # 0.05 mW * 2 ns = 0.1 pJ per accumulate step.
        assert TECH_45NM.energy_per_mac_j == pytest.approx(1e-13)

    def test_steps_per_second(self):
        assert TECH_45NM.steps_per_second() == pytest.approx(5e8)


class TestValidation:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            TechnologyNode(name="bad", t_mac_s=0.0, p_mac_w=1.0)
        with pytest.raises(ValueError):
            TechnologyNode(name="bad", t_mac_s=1.0, p_mac_w=-1.0)

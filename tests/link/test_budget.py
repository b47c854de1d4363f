"""Tests for the transcutaneous link budget."""

import pytest

from repro.link.budget import LinkBudget, transmit_energy_per_bit


class TestLinkBudget:
    def test_default_matches_paper_parameters(self):
        budget = LinkBudget()
        assert budget.target_ber == pytest.approx(1e-6)
        assert budget.path_loss_db == pytest.approx(60.0)
        assert budget.margin_db == pytest.approx(20.0)

    def test_total_loss_is_80_db(self):
        assert LinkBudget().total_loss_linear == pytest.approx(1e8)

    def test_one_bit_energy_anchor(self):
        # Calibration anchor: ~24 pJ/bit at 1 bit/symbol, 100 % efficiency.
        energy = LinkBudget().transmit_energy_per_bit(1, efficiency=1.0)
        assert energy == pytest.approx(24.2e-12, rel=0.05)

    def test_energy_monotone_in_order_beyond_qpsk(self):
        budget = LinkBudget()
        values = [budget.transmit_energy_per_bit(b) for b in range(2, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_efficiency_divides(self):
        budget = LinkBudget()
        ideal = budget.transmit_energy_per_bit(4, efficiency=1.0)
        real = budget.transmit_energy_per_bit(4, efficiency=0.15)
        assert real == pytest.approx(ideal / 0.15)

    def test_margin_multiplies(self):
        low = LinkBudget(margin_db=0.0).transmit_energy_per_bit(1)
        high = LinkBudget(margin_db=20.0).transmit_energy_per_bit(1)
        assert high == pytest.approx(100.0 * low)

    def test_receive_energy_below_transmit(self):
        budget = LinkBudget()
        assert (budget.required_receive_energy_per_bit(1)
                < budget.transmit_energy_per_bit(1))

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            LinkBudget().transmit_energy_per_bit(1, efficiency=0.0)
        with pytest.raises(ValueError):
            LinkBudget().transmit_energy_per_bit(1, efficiency=1.5)

    def test_rejects_bad_ber(self):
        with pytest.raises(ValueError):
            LinkBudget(target_ber=0.0)

    def test_rejects_negative_losses(self):
        with pytest.raises(ValueError):
            LinkBudget(path_loss_db=-1.0)

    def test_wrapper_matches_method(self):
        assert transmit_energy_per_bit(3) == pytest.approx(
            LinkBudget().transmit_energy_per_bit(3))

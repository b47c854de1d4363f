"""Tests for the sensitivity-analysis module."""

import pytest

from repro.core.qam_design import max_channels_at_efficiency
from repro.core.scaling import scale_to_standard
from repro.core.sensitivity import (
    SensitivityResult,
    sweep_record_parameter,
    tornado,
)
from repro.core.socs import soc_by_number
from repro.link.budget import LinkBudget


@pytest.fixture(scope="module")
def bisc_record():
    return soc_by_number(1)


class TestSweeps:
    def test_comm_fraction_raises_mlp_frontier(self, bisc_record):
        # More of the anchor power attributed to the (replaceable)
        # transceiver leaves more headroom for compute.
        result = sweep_record_parameter(
            bisc_record, "comm_power_fraction", (0.15, 0.25, 0.35),
            "mlp_max_channels")
        assert result.outcomes[0] <= result.outcomes[-1]

    def test_sensing_area_fraction_moves_crossing(self, bisc_record):
        result = sweep_record_parameter(
            bisc_record, "sensing_area_fraction", (0.45, 0.55, 0.65),
            "high_margin_crossing")
        # Larger sensing share -> budget tracks power longer -> later
        # crossing.
        assert result.outcomes[0] < result.outcomes[-1]

    def test_sample_bits_shrink_qam_frontier(self, bisc_record):
        result = sweep_record_parameter(
            bisc_record, "sample_bits", (8.0, 10.0, 12.0),
            "qam_channels_at_20pct")
        assert result.outcomes[0] >= result.outcomes[-1]

    def test_headline_robust_to_split_estimates(self, bisc_record):
        # The Fig. 10 frontier moves by well under 2x across +-0.1
        # perturbations of the estimated splits — the EXPERIMENTS.md
        # robustness claim.
        for result in tornado(bisc_record):
            assert result.relative_swing < 1.0, result.parameter

    def test_noise_figure_sweep_monotone(self, bisc_record):
        # A noisier receiver never admits more channels at 20 % QAM
        # efficiency.
        soc = scale_to_standard(bisc_record)
        outcomes = [max_channels_at_efficiency(
            soc, 0.20, LinkBudget(noise_figure_db=nf))
            for nf in (5.0, 7.0, 9.0)]
        assert outcomes == sorted(outcomes, reverse=True)

    def test_swing_computation(self):
        result = SensitivityResult(parameter="p", metric="m",
                                   values=(1.0, 2.0, 3.0),
                                   outcomes=(10.0, 15.0, 30.0))
        assert result.swing == 20.0
        assert result.relative_swing == pytest.approx(20.0 / 15.0)

    def test_rejects_unknown_field(self, bisc_record):
        with pytest.raises(ValueError):
            sweep_record_parameter(bisc_record, "nonexistent", (1.0,),
                                   "mlp_max_channels")

    def test_rejects_unknown_metric(self, bisc_record):
        with pytest.raises(ValueError):
            sweep_record_parameter(bisc_record, "comm_power_fraction",
                                   (0.25,), "nonsense")

    def test_rejects_empty_sweep(self, bisc_record):
        with pytest.raises(ValueError):
            sweep_record_parameter(bisc_record, "comm_power_fraction",
                                   (), "mlp_max_channels")

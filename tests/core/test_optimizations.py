"""Tests for the Section 6.2 optimization ladder (Fig. 12)."""

import math

import numpy as np
import pytest

from repro.accel.schedule import (
    schedule_non_pipelined,
    schedule_pipelined,
)
from repro.accel.tech import TECH_12NM
from repro.core.comp_centric import Workload
from repro.core.optimizations import (
    LADDER,
    OptimizationConfig,
    _design_fits,
    densified_sensing_area_m2,
    evaluate_ladder,
    evaluate_ladder_step,
    max_active_channels,
)
from repro.dnn.models import build_speech_mlp
from repro.units import SAFE_POWER_DENSITY


class TestLadderStructure:
    def test_four_steps_in_paper_order(self):
        names = [name for name, _ in LADDER]
        assert names == ["ChDr", "La+ChDr", "La+ChDr+Tech",
                         "La+ChDr+Tech+Dense"]

    def test_steps_are_cumulative(self):
        configs = dict(LADDER)
        assert not configs["ChDr"].layer_reduction
        assert configs["La+ChDr"].layer_reduction
        assert configs["La+ChDr+Tech"].tech is TECH_12NM
        assert configs["La+ChDr+Tech+Dense"].density_factor == 2.0

    def test_config_rejects_bad_density(self):
        with pytest.raises(ValueError):
            OptimizationConfig(density_factor=0.5)


class TestMaxActiveChannels:
    def test_dropout_needed_at_4096(self, bisc):
        # At 4096 channels the full MLP no longer fits BISC; channel
        # dropout must reduce the active set.
        active = max_active_channels(bisc, Workload.MLP, 4096,
                                     OptimizationConfig())
        assert 0 < active < 4096

    def test_monotone_in_optimization_strength(self, bisc):
        base = max_active_channels(bisc, Workload.MLP, 2048,
                                   OptimizationConfig())
        with_la = max_active_channels(
            bisc, Workload.MLP, 2048,
            OptimizationConfig(layer_reduction=True))
        with_tech = max_active_channels(
            bisc, Workload.MLP, 2048,
            OptimizationConfig(layer_reduction=True, tech=TECH_12NM))
        assert base <= with_la <= with_tech

    def test_dense_reduces_budget_and_active_set(self, bisc):
        with_tech = max_active_channels(
            bisc, Workload.MLP, 4096,
            OptimizationConfig(layer_reduction=True, tech=TECH_12NM))
        with_dense = max_active_channels(
            bisc, Workload.MLP, 4096,
            OptimizationConfig(layer_reduction=True, tech=TECH_12NM,
                               density_factor=2.0))
        assert with_dense <= with_tech

    def test_capped_at_target(self, bisc):
        # At 1024 the MLP fits BISC outright -> no dropout needed.
        active = max_active_channels(bisc, Workload.MLP, 1024,
                                     OptimizationConfig())
        assert active == 1024

    def test_rejects_tiny_target(self, bisc):
        with pytest.raises(ValueError):
            max_active_channels(bisc, Workload.MLP, 8,
                                OptimizationConfig())


class TestDensifiedArea:
    def test_no_change_at_anchor(self, bisc):
        assert densified_sensing_area_m2(bisc, 1024, 2.0) == pytest.approx(
            bisc.sensing_area_anchor_m2)

    def test_added_channels_halved(self, bisc):
        full = bisc.sensing_area_m2(2048)
        dense = densified_sensing_area_m2(bisc, 2048, 2.0)
        anchor = bisc.sensing_area_anchor_m2
        assert dense == pytest.approx(anchor + (full - anchor) / 2)

    def test_factor_one_is_identity(self, bisc):
        assert densified_sensing_area_m2(bisc, 4096, 1.0) == pytest.approx(
            bisc.sensing_area_m2(4096))


class TestFig12Claims:
    @pytest.fixture(scope="class")
    def ladder_2048(self, request):
        from repro.core.scaling import scale_to_standard
        from repro.core.socs import wireless_socs
        socs = [scale_to_standard(r) for r in wireless_socs()]
        return {soc.name: evaluate_ladder(soc, 2048) for soc in socs}

    def test_chdr_reduces_model_to_tens_of_percent(self, ladder_2048):
        # Paper: ChDr reduces the model to ~32 % on average at 2048.
        fractions = [steps[0].model_size_fraction
                     for steps in ladder_2048.values()]
        avg = sum(fractions) / len(fractions)
        assert 0.2 <= avg <= 0.5

    def test_la_improves_over_chdr(self, ladder_2048):
        # Paper: La increases feasible model size (avg +30 %).
        for steps in ladder_2048.values():
            assert steps[1].model_size_fraction >= \
                steps[0].model_size_fraction - 1e-9

    def test_tech_improves_over_la(self, ladder_2048):
        for steps in ladder_2048.values():
            assert steps[2].model_size_fraction >= \
                steps[1].model_size_fraction - 1e-9

    def test_tech_average_near_72pct(self, ladder_2048):
        fractions = [steps[2].model_size_fraction
                     for steps in ladder_2048.values()]
        avg = sum(fractions) / len(fractions)
        assert 0.55 <= avg <= 0.85

    def test_dense_reduces_model_size(self, ladder_2048):
        # Paper: Dense lowers P_budget and shrinks the feasible model.
        for steps in ladder_2048.values():
            assert steps[3].model_size_fraction <= \
                steps[2].model_size_fraction + 1e-9

    def test_step_metadata(self, ladder_2048):
        for steps in ladder_2048.values():
            assert [s.step_name for s in steps] == [n for n, _ in LADDER]
            assert all(s.n_channels == 2048 for s in steps)


class TestLadderAtScale:
    def test_model_fraction_shrinks_with_target_channels(self, bisc):
        chdr = OptimizationConfig()
        f2048 = evaluate_ladder_step(bisc, 2048, "ChDr",
                                     chdr).model_size_fraction
        f8192 = evaluate_ladder_step(bisc, 8192, "ChDr",
                                     chdr).model_size_fraction
        assert f8192 < f2048

    def test_fraction_zero_when_nothing_fits(self, wireless_scaled):
        # The smallest-budget SoC cannot fit any model at 8192 with Dense.
        halo = next(s for s in wireless_scaled if s.name == "HALO*")
        step = evaluate_ladder_step(
            halo, 8192, "La+ChDr+Tech+Dense",
            OptimizationConfig(layer_reduction=True, tech=TECH_12NM,
                               density_factor=2.0))
        assert step.model_size_fraction <= 0.02


def _reference_implant_power_w(soc, net, transmitted, tech):
    """Compute + communication power of an on-implant sub-network,
    scheduled from scratch: both modes solved in full, the fewer units
    win, ties to the shared pool."""
    profiles = net.mac_profiles()
    deadline = 1.0 / soc.sampling_hz
    schedules = [s for s in (
        schedule_non_pipelined(profiles, deadline, tech),
        schedule_pipelined(profiles, deadline, tech)) if s is not None]
    if not schedules:
        return math.inf
    schedule = min(schedules, key=lambda s: s.mac_units)
    comm = (transmitted * soc.sample_bits * soc.sampling_hz
            * soc.implied_energy_per_bit_j)
    return schedule.power_w(tech) + comm


def _reference_design_fits(soc, n_channels, active_channels, config):
    """The ladder feasibility test written out directly: rebuild the
    n'-channel network and every head, and schedule each one."""
    net = build_speech_mlp(active_channels)
    non_sensing = _reference_implant_power_w(soc, net, net.output_values,
                                             config.tech)
    if config.layer_reduction:
        sizes = net.compute_layer_output_values()
        for split, size in enumerate(sizes[:-1], start=1):
            if size <= 1024:  # the Section 6.1 transmission cap
                candidate = _reference_implant_power_w(
                    soc, net.head(split), size, config.tech)
                non_sensing = min(non_sensing, candidate)
    sensing_area = densified_sensing_area_m2(soc, n_channels,
                                             config.density_factor)
    budget = (sensing_area + soc.non_sensing_area_m2) * SAFE_POWER_DENSITY
    return soc.sensing_power_w(n_channels) + non_sensing <= budget


def _reference_max_active(soc, n_channels, config, min_active=16):
    def fits(active):
        return _reference_design_fits(soc, n_channels, active,
                                      config)

    if fits(n_channels):
        return n_channels
    if not fits(min_active):
        return 0
    lo, hi = min_active, n_channels
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestLadderParity:
    """The memoized ladder probe against the direct formula."""

    @pytest.mark.parametrize("n_channels", [1024, 2048, 4096, 8192])
    def test_max_active_matches_reference(self, wireless_scaled,
                                          n_channels):
        for soc in wireless_scaled:
            for name, config in LADDER:
                assert (max_active_channels(soc, Workload.MLP, n_channels,
                                            config)
                        == _reference_max_active(soc, n_channels, config)
                        ), (soc.name, name)

    @pytest.mark.parametrize("n_channels", [2048, 8192])
    def test_feasibility_is_a_prefix_in_active_channels(
            self, wireless_scaled, n_channels):
        # The bisection in max_active_channels assumes that once n'
        # stops fitting, no larger n' fits again.
        grid = np.linspace(16, n_channels, 64).astype(int).tolist()
        for soc in wireless_scaled:
            for name, config in LADDER:
                fits = [_design_fits(soc, Workload.MLP, n_channels, active,
                                     config) for active in grid]
                first_miss = fits.index(False) if False in fits else None
                assert first_miss is None or not any(
                    fits[first_miss:]), (soc.name, name)

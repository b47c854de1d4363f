"""Tests for the second-order memory model."""

import pytest

from repro.accel.interconnect import InterconnectModel
from repro.accel.memory import (
    MemoryModel,
    assess_memory_margin,
)
from repro.accel.schedule import best_schedule
from repro.accel.tech import TECH_45NM
from repro.core.comp_centric import Workload, evaluate_comp_centric
from repro.core.scaling import scale_to_standard
from repro.core.socs import soc_by_number
from repro.dnn.macs import LayerMacs
from repro.dnn.models import build_speech_mlp


@pytest.fixture(scope="module")
def mlp_and_schedule():
    net = build_speech_mlp(1024)
    schedule = best_schedule(net.mac_profiles(), 1.0 / 8e3, TECH_45NM)
    return net, schedule


class TestAccessCounting:
    def test_layer_accesses_formula(self):
        model = MemoryModel()
        profile = LayerMacs(mac_seq=100, mac_ops=50)
        # 10 units -> 5 rounds: 100*5 reads + 50 writes.
        assert model.layer_accesses(profile, 10) == 550

    def test_more_units_fewer_reads(self):
        model = MemoryModel()
        profile = LayerMacs(mac_seq=100, mac_ops=64)
        assert model.layer_accesses(profile, 64) < \
            model.layer_accesses(profile, 1)

    def test_rejects_zero_units(self):
        with pytest.raises(ValueError):
            MemoryModel().layer_accesses(LayerMacs(10, 10), 0)


class TestBufferSizing:
    def test_double_buffered_widest_boundary(self):
        model = MemoryModel(word_bits=8)
        net = build_speech_mlp(1024)
        widest = max([net.input_shape[0]]
                     + net.compute_layer_output_values())
        assert model.buffer_bits(net) == 2 * widest * 8

    def test_scales_with_word_width(self):
        net = build_speech_mlp(256)
        assert MemoryModel(word_bits=16).buffer_bits(net) == \
            2 * MemoryModel(word_bits=8).buffer_bits(net)


class TestPower:
    def test_memory_power_positive(self, mlp_and_schedule):
        net, schedule = mlp_and_schedule
        power = MemoryModel().power_w(net, schedule, 8e3)
        assert power > 0

    def test_memory_is_second_order(self, mlp_and_schedule):
        # The paper's premise: memory overhead stays below the MAC lower
        # bound for the broadcast-amortized weight-stationary design.
        net, schedule = mlp_and_schedule
        memory = MemoryModel().power_w(net, schedule, 8e3)
        mac = schedule.power_w(TECH_45NM)
        assert memory < mac

    def test_power_scales_with_rate(self, mlp_and_schedule):
        net, schedule = mlp_and_schedule
        model = MemoryModel(leakage_w_per_bit=0.0)
        assert model.power_w(net, schedule, 16e3) == pytest.approx(
            2 * model.power_w(net, schedule, 8e3))

    def test_leakage_floor(self, mlp_and_schedule):
        net, schedule = mlp_and_schedule
        leaky = MemoryModel(access_energy_j=0.0)
        assert leaky.power_w(net, schedule, 8e3) == pytest.approx(
            leaky.buffer_bits(net) * leaky.leakage_w_per_bit)

    def test_rejects_mismatched_schedule(self):
        net_a = build_speech_mlp(1024)
        net_b = build_speech_mlp(4096)  # deeper (extra alpha layer)
        schedule = best_schedule(net_a.mac_profiles(), 1.0 / 8e3,
                                 TECH_45NM)
        assert net_b.n_compute_layers != net_a.n_compute_layers
        with pytest.raises(ValueError):
            MemoryModel().inference_energy_j(net_b, schedule)

    def test_rejects_bad_rate(self, mlp_and_schedule):
        net, schedule = mlp_and_schedule
        with pytest.raises(ValueError):
            MemoryModel().power_w(net, schedule, 0.0)


class TestMarginReport:
    def test_bisc_margin_survives_memory(self, mlp_and_schedule, bisc):
        # At 1024 channels the BISC margin absorbs the memory system —
        # the condition under which the paper's lower bound methodology
        # remains conclusive.
        net, schedule = mlp_and_schedule
        point = evaluate_comp_centric(bisc, Workload.MLP, 1024)
        margin = point.budget_w - point.total_power_w
        report = assess_memory_margin(net, schedule, bisc.sampling_hz,
                                      margin, TECH_45NM)
        assert report.still_fits
        assert report.memory_overhead_fraction < 0.5

    def test_exhausted_margin_detected(self, mlp_and_schedule):
        net, schedule = mlp_and_schedule
        report = assess_memory_margin(net, schedule, 8e3, 1e-9,
                                      TECH_45NM)
        assert not report.still_fits
        assert report.margin_consumed_fraction > 1.0

    @pytest.mark.parametrize("number", [1, 2, 5])
    def test_memory_and_routing_fit_the_eq13_margin(self, number):
        # The paper's MAC-only lower bound is conclusive because the
        # second-order factors fit "using the margin between the lower
        # bound and the total power budget": on every SoC whose MLP fits
        # at 1024 channels, memory + routing fit that margin and stay
        # below the MAC power itself.
        soc = scale_to_standard(soc_by_number(number))
        net = build_speech_mlp(1024)
        point = evaluate_comp_centric(soc, Workload.MLP, 1024)
        schedule = best_schedule(net.mac_profiles(),
                                 1.0 / soc.sampling_hz, TECH_45NM)
        overhead = (MemoryModel().power_w(net, schedule, soc.sampling_hz)
                    + InterconnectModel().power_w(net, schedule,
                                                  soc.sampling_hz))
        assert overhead <= point.budget_w - point.total_power_w
        assert overhead < point.comp_power_w

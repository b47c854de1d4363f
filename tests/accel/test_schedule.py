"""Tests for the Eq. 11-15 MAC schedulers."""

import math

import pytest

from repro.accel.schedule import (
    best_schedule,
    schedule_non_pipelined,
    schedule_pipelined,
)
from repro.accel.tech import TECH_12NM, TECH_45NM
from repro.dnn.macs import LayerMacs
from repro.dnn.models import build_speech_dncnn, build_speech_mlp

#: Channel counts for the workload heads: non-multiples of 4 reach the
#: DN-CNN's pool-by-2 (130, 514, 1022) and no-pool (37, 3001) branches.
N_SPREAD = (16, 37, 130, 514, 1022, 2048, 3001, 4096)


def profiles_simple():
    return [LayerMacs(mac_seq=100, mac_ops=50),
            LayerMacs(mac_seq=50, mac_ops=20)]


class TestNonPipelined:
    def test_single_unit_runtime(self):
        # With 1 unit: 100*50 + 50*20 = 6000 steps * 2 ns = 12 us.
        schedule = schedule_non_pipelined(profiles_simple(), 1.0, TECH_45NM)
        assert schedule.mac_units == 1
        assert schedule.runtime_s == pytest.approx(12e-6)

    def test_minimality(self):
        # Deadline exactly at the 2-unit runtime: 100*25 + 50*10 = 3000
        # steps * 2 ns = 6 us.
        schedule = schedule_non_pipelined(profiles_simple(), 6e-6,
                                          TECH_45NM)
        assert schedule.mac_units == 2
        assert schedule.runtime_s <= 6e-6

    def test_eq12_unit_cap(self):
        # Even max units cannot beat MACseq-serial time.
        profiles = [LayerMacs(mac_seq=1000, mac_ops=4)]
        # With 4 units: 1000 * 2 ns = 2 us; deadline below that -> None.
        assert schedule_non_pipelined(profiles, 1e-6, TECH_45NM) is None

    def test_units_never_exceed_max_ops(self):
        profiles = [LayerMacs(mac_seq=10, mac_ops=7)]
        schedule = schedule_non_pipelined(profiles, 1.0, TECH_45NM)
        assert schedule.mac_units <= 7

    def test_deadline_respected(self):
        for deadline in (1e-5, 5e-5, 1e-4):
            schedule = schedule_non_pipelined(profiles_simple(), deadline,
                                              TECH_45NM)
            if schedule is not None:
                assert schedule.runtime_s <= deadline

    def test_tighter_deadline_needs_more_units(self):
        loose = schedule_non_pipelined(profiles_simple(), 1e-4, TECH_45NM)
        tight = schedule_non_pipelined(profiles_simple(), 7e-6, TECH_45NM)
        assert tight.mac_units > loose.mac_units

    def test_rejects_empty_profiles(self):
        with pytest.raises(ValueError):
            schedule_non_pipelined([], 1.0, TECH_45NM)

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError):
            schedule_non_pipelined(profiles_simple(), 0.0, TECH_45NM)

    def test_rejects_non_compute_layers(self):
        with pytest.raises(ValueError):
            schedule_non_pipelined([LayerMacs(0, 0)], 1.0, TECH_45NM)


class TestPipelined:
    def test_per_layer_allocation(self):
        # Deadline 10 us: layer 1 rounds budget = 10us/200ns = 50 ->
        # units = ceil(50/50) = 1; layer 2: budget 100 -> units 1.
        schedule = schedule_pipelined(profiles_simple(), 10e-6, TECH_45NM)
        assert schedule.per_layer_units == (1, 1)
        assert schedule.mac_units == 2

    def test_initiation_interval_below_deadline(self):
        schedule = schedule_pipelined(profiles_simple(), 1e-5, TECH_45NM)
        assert schedule.runtime_s <= 1e-5

    def test_float_quotient_never_overruns_the_deadline(self):
        # 2e-5 / fl(125 * 2 ns) rounds to exactly 80, but 80 rounds of
        # fl(125 * 2 ns) take 2.0000000000000005e-05 s.  A layer with
        # #MACop equal to its round budget runs all of those rounds on
        # one unit, so every such budget must fit the deadline.
        overruns = []
        for tech in (TECH_45NM, TECH_12NM):
            for mac_seq in range(1, 401):
                for micros in range(1, 101):
                    deadline = micros / 1e6
                    budget = math.floor(deadline / (mac_seq * tech.t_mac_s))
                    if budget < 1:
                        continue
                    profiles = [LayerMacs(mac_seq=mac_seq, mac_ops=budget)]
                    schedule = schedule_pipelined(profiles, deadline, tech)
                    if schedule.runtime_s > deadline:
                        overruns.append((tech.name, mac_seq, micros))
        assert overruns == []
        schedule = schedule_pipelined([LayerMacs(mac_seq=125, mac_ops=159)],
                                      2e-5, TECH_45NM)
        assert schedule.mac_units == 3
        assert schedule.runtime_s <= 2e-5

    def test_infeasible_when_sequence_exceeds_deadline(self):
        profiles = [LayerMacs(mac_seq=10_000, mac_ops=1)]
        # 10k steps * 2 ns = 20 us > 10 us deadline, unparallelizable.
        assert schedule_pipelined(profiles, 10e-6, TECH_45NM) is None

    def test_eq15_per_layer_cap(self):
        profiles = [LayerMacs(mac_seq=100, mac_ops=10)]
        schedule = schedule_pipelined(profiles, 1e-3, TECH_45NM)
        assert all(u <= p.mac_ops
                   for u, p in zip(schedule.per_layer_units, profiles))

    def test_pipelining_can_beat_shared_pool(self):
        # Three balanced layers at a deadline just above one layer's
        # single-unit time: the pool must race through all three in
        # sequence while the pipeline overlaps them with 1 unit each.
        profiles = [LayerMacs(mac_seq=1000, mac_ops=64)] * 3
        deadline = 128.5e-6  # one layer on one unit takes 128 us
        pooled = schedule_non_pipelined(profiles, deadline, TECH_45NM)
        piped = schedule_pipelined(profiles, deadline, TECH_45NM)
        assert piped.mac_units == 3
        assert piped.mac_units < pooled.mac_units


class TestBestSchedule:
    def test_picks_lower_power(self):
        profiles = profiles_simple()
        deadline = 1e-5
        best = best_schedule(profiles, deadline, TECH_45NM)
        candidates = [schedule_non_pipelined(profiles, deadline, TECH_45NM),
                      schedule_pipelined(profiles, deadline, TECH_45NM)]
        units = [c.mac_units for c in candidates if c is not None]
        assert best.mac_units == min(units)

    def test_returns_none_when_both_infeasible(self):
        profiles = [LayerMacs(mac_seq=10_000_000, mac_ops=1)]
        assert best_schedule(profiles, 1e-6, TECH_45NM) is None

    def test_power_lower_bound_eq13(self):
        # Eq. 13: P_comp of the minimal schedule = units * P_MAC.
        best = best_schedule(profiles_simple(), 1e-5, TECH_45NM)
        assert best.power_w(TECH_45NM) == pytest.approx(
            best.mac_units * TECH_45NM.p_mac_w)

    def test_power_scales_with_throughput_demand(self):
        profiles = [LayerMacs(mac_seq=256, mac_ops=4096)]
        slow = best_schedule(profiles, 1e-2, TECH_45NM).power_w(TECH_45NM)
        fast = best_schedule(profiles, 1e-4, TECH_45NM).power_w(TECH_45NM)
        assert fast > slow

    def test_total_mac_conservation(self):
        # Whatever the allocation, executed MAC steps equal the profile sum.
        profiles = profiles_simple()
        total = sum(p.total_macs for p in profiles)
        assert total == 100 * 50 + 50 * 20

    def test_runtime_matches_eq11_formula(self):
        profiles = [LayerMacs(mac_seq=7, mac_ops=13)]
        schedule = schedule_non_pipelined(profiles, 1.0, TECH_45NM)
        expected = 7 * TECH_45NM.t_mac_s * math.ceil(
            13 / schedule.mac_units)
        assert schedule.runtime_s == pytest.approx(expected)


def _two_mode_reference(profiles, deadline_s, tech):
    """Both modes solved in full; the fewer units win, ties to the
    shared pool."""
    candidates = [s for s in (schedule_non_pipelined(profiles, deadline_s,
                                                     tech),
                              schedule_pipelined(profiles, deadline_s, tech))
                  if s is not None]
    return min(candidates, key=lambda s: s.mac_units, default=None)


class TestBestScheduleEarlyReturn:
    """The pool bisection is skipped only when it cannot win."""

    @pytest.mark.parametrize("build", [build_speech_mlp, build_speech_dncnn])
    def test_every_head_matches_both_modes(self, build, wireless_scaled):
        deadlines = sorted({1.0 / soc.sampling_hz for soc in wireless_scaled})
        modes = set()
        for n_channels in N_SPREAD:
            profiles = build(n_channels).mac_profiles()
            for split in range(1, len(profiles) + 1):
                head = profiles[:split]
                for deadline in deadlines:
                    for tech in (TECH_45NM, TECH_12NM):
                        best = best_schedule(head, deadline, tech)
                        assert best == _two_mode_reference(
                            head, deadline, tech), (n_channels, split,
                                                    deadline, tech.name)
                        if best is not None:
                            modes.add(best.pipelined)
        assert modes == {True, False}

    @pytest.mark.parametrize("deadline", [
        1.1e-6,
        100 * TECH_45NM.t_mac_s * 5,  # the 2-unit runtime, met exactly
    ])
    def test_tie_goes_to_the_shared_pool(self, deadline):
        # One layer: both modes need 2 units (5 rounds of 100 MAC steps
        # at 2 ns = 1 us; 1 unit takes 2 us).
        profiles = [LayerMacs(mac_seq=100, mac_ops=10)]
        pooled = schedule_non_pipelined(profiles, deadline, TECH_45NM)
        piped = schedule_pipelined(profiles, deadline, TECH_45NM)
        assert pooled.mac_units == piped.mac_units == 2
        best = best_schedule(profiles, deadline, TECH_45NM)
        assert best == pooled
        assert not best.pipelined

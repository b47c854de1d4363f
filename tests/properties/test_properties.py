"""Hypothesis property-based tests on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.schedule import (
    schedule_non_pipelined,
    schedule_pipelined,
)
from repro.accel.tech import TECH_45NM, TechnologyNode
from repro.compress.delta import quantize
from repro.dnn.macs import LayerMacs, fmac_conv1d, fmac_dense
from repro.link.ber import ber_mqam, required_ebn0
from repro.link.modulation import MQAM
from repro.link.packetizer import Packetizer
from repro.thermal.budget import power_budget, power_density
from repro.units import db_to_linear, linear_to_db


# ---------------------------------------------------------------- units
@given(st.floats(min_value=-100, max_value=100))
def test_db_round_trip(db):
    assert linear_to_db(db_to_linear(db)) == pytest_approx(db)


def pytest_approx(value, rel=1e-9):
    import pytest
    return pytest.approx(value, rel=rel, abs=1e-9)


# ------------------------------------------------------------------ BER
@given(st.integers(min_value=1, max_value=10),
       st.floats(min_value=0.1, max_value=1e4))
def test_ber_is_probability(bits, ebn0):
    ber = ber_mqam(ebn0, bits)
    assert 0.0 <= ber <= 0.5


@given(st.integers(min_value=1, max_value=8),
       st.floats(min_value=1.0, max_value=100.0))
def test_ber_monotone_decreasing_in_ebn0(bits, ebn0):
    assert ber_mqam(2 * ebn0, bits) <= ber_mqam(ebn0, bits) + 1e-15


@given(st.integers(min_value=1, max_value=8),
       st.floats(min_value=1e-9, max_value=1e-2))
def test_required_ebn0_inverts_ber(bits, target):
    ebn0 = required_ebn0(target, bits)
    assert ber_mqam(ebn0, bits) == pytest_approx(target, rel=1e-4)


# ----------------------------------------------------------- modulation
@given(st.integers(min_value=1, max_value=4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30)
def test_modulation_round_trip(half_order, seed):
    bits_per_symbol = 2 * half_order
    scheme = MQAM(bits_per_symbol)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=40 * bits_per_symbol).astype(np.int8)
    recovered = scheme.demodulate(scheme.modulate(bits))
    assert np.array_equal(recovered, bits)


# ------------------------------------------------------------ quantizer
@given(st.integers(min_value=2, max_value=16), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_quantizer_error_bounded(bits, seed):
    rng = np.random.default_rng(seed)
    signal = rng.uniform(-0.999, 0.999, size=64)
    lsb = 2.0 / 2 ** bits
    recon = (quantize(signal, bits) + 0.5) * lsb  # mid-rise cell centres
    assert np.max(np.abs(signal - recon)) <= lsb / 2 + 1e-12


@given(st.integers(min_value=1, max_value=16))
def test_quantizer_codes_in_range(bits):
    signal = np.linspace(-5, 5, 101)
    codes = quantize(signal, bits)
    assert codes.min() >= -(2 ** (bits - 1))
    assert codes.max() <= 2 ** (bits - 1) - 1


# ------------------------------------------------------------ packetizer
@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=16),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_packetizer_round_trip(payload, bits, seed):
    rng = np.random.default_rng(seed)
    packetizer = Packetizer(payload_bytes=payload, sample_bits=bits)
    lo = -(2 ** (bits - 1))
    hi = 2 ** (bits - 1)
    codes = rng.integers(lo, hi, size=50).astype(np.int32)
    recovered = packetizer.depacketize(packetizer.packetize(codes))
    assert np.array_equal(recovered, codes)


# --------------------------------------------------------------- budget
@given(st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=1e-6, max_value=10.0))
def test_budget_density_duality(area, power):
    # power_density(power_budget(A), A) == limit for any area.
    budget = power_budget(area)
    assert power_density(budget, area) == pytest_approx(400.0)


@given(st.floats(min_value=1e-6, max_value=0.5),
       st.floats(min_value=1.1, max_value=3.0))
def test_budget_monotone_in_area(area, factor):
    assert power_budget(area * factor) > power_budget(area)


# -------------------------------------------------------------- MAC math
@given(st.integers(min_value=1, max_value=4096),
       st.integers(min_value=1, max_value=4096))
def test_dense_profile_total(in_f, out_f):
    profile = fmac_dense(in_f, out_f)
    assert profile.total_macs == in_f * out_f


@given(st.integers(min_value=1, max_value=16),
       st.integers(min_value=1, max_value=32),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=512))
def test_conv_profile_total(in_ch, out_ch, kernel, length):
    profile = fmac_conv1d(in_ch, out_ch, kernel, length)
    assert profile.total_macs == in_ch * out_ch * kernel * length


# -------------------------------------------------------------- schedule
@st.composite
def profiles_strategy(draw):
    n_layers = draw(st.integers(min_value=1, max_value=5))
    return [LayerMacs(mac_seq=draw(st.integers(1, 200)),
                      mac_ops=draw(st.integers(1, 200)))
            for _ in range(n_layers)]


@given(profiles_strategy(),
       st.floats(min_value=1e-6, max_value=1e-2))
@settings(max_examples=60)
def test_schedules_respect_deadline_and_caps(profiles, deadline):
    pooled = schedule_non_pipelined(profiles, deadline, TECH_45NM)
    if pooled is not None:
        assert pooled.runtime_s <= deadline
        assert pooled.mac_units <= max(p.mac_ops for p in profiles)
    piped = schedule_pipelined(profiles, deadline, TECH_45NM)
    if piped is not None:
        assert piped.runtime_s <= deadline
        for units, profile in zip(piped.per_layer_units, profiles):
            assert 1 <= units <= profile.mac_ops


@given(profiles_strategy(),
       st.floats(min_value=1e-5, max_value=1e-2))
@settings(max_examples=40)
def test_non_pipelined_minimality(profiles, deadline):
    # One fewer unit must violate the deadline (minimality witness).
    schedule = schedule_non_pipelined(profiles, deadline, TECH_45NM)
    if schedule is None or schedule.mac_units == 1:
        return
    import math as m
    fewer = schedule.mac_units - 1
    runtime = sum(p.mac_seq * TECH_45NM.t_mac_s * m.ceil(p.mac_ops / fewer)
                  for p in profiles)
    assert runtime > deadline


@given(profiles_strategy(), st.floats(min_value=1e-5, max_value=1e-2),
       st.floats(min_value=1.5, max_value=4.0))
@settings(max_examples=40)
def test_looser_deadline_never_needs_more_units(profiles, deadline, slack):
    tight = schedule_non_pipelined(profiles, deadline, TECH_45NM)
    loose = schedule_non_pipelined(profiles, deadline * slack, TECH_45NM)
    if tight is not None:
        assert loose is not None
        assert loose.mac_units <= tight.mac_units


@given(profiles_strategy(), st.floats(min_value=1e-5, max_value=1e-2))
@settings(max_examples=40)
def test_better_tech_never_needs_more_units(profiles, deadline):
    faster = TechnologyNode(name="fast", t_mac_s=TECH_45NM.t_mac_s / 2,
                            p_mac_w=TECH_45NM.p_mac_w)
    base = schedule_non_pipelined(profiles, deadline, TECH_45NM)
    quick = schedule_non_pipelined(profiles, deadline, faster)
    if base is not None:
        assert quick is not None
        assert quick.mac_units <= base.mac_units

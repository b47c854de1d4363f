"""Hypothesis property tests for the extension substrates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.delta import delta_decode, delta_encode
from repro.compress.rice import (
    encoded_length_bits,
    optimal_rice_parameter,
    rice_decode,
    rice_encode,
    unzigzag,
    zigzag,
)
from repro.link.wpt import InductiveLink


# ---------------------------------------------------------------- zigzag
@given(st.lists(st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
                min_size=1, max_size=100))
def test_zigzag_round_trip(values):
    array = np.array(values, dtype=np.int64)
    np.testing.assert_array_equal(unzigzag(zigzag(array)), array)


@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=50))
def test_zigzag_is_non_negative(values):
    assert np.all(zigzag(np.array(values)) >= 0)


# ------------------------------------------------------------------ rice
@given(st.lists(st.integers(min_value=-500, max_value=500),
                min_size=1, max_size=40),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=50)
def test_rice_round_trip(values, k):
    array = np.array(values, dtype=np.int64)
    bits = rice_encode(array, k)
    np.testing.assert_array_equal(rice_decode(bits, k, array.size), array)


@given(st.lists(st.integers(min_value=-500, max_value=500),
                min_size=1, max_size=40),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=50)
def test_rice_length_formula_exact(values, k):
    array = np.array(values, dtype=np.int64)
    assert len(rice_encode(array, k)) == encoded_length_bits(array, k)


@given(st.lists(st.integers(min_value=-2000, max_value=2000),
                min_size=4, max_size=64))
@settings(max_examples=40)
def test_optimal_parameter_dominates(values):
    array = np.array(values, dtype=np.int64)
    best = encoded_length_bits(array, optimal_rice_parameter(array))
    for k in range(14):
        assert best <= encoded_length_bits(array, k)


# ----------------------------------------------------------------- delta
@given(st.lists(st.integers(min_value=-(2 ** 20), max_value=2 ** 20),
                min_size=1, max_size=128))
def test_delta_round_trip(values):
    array = np.array(values, dtype=np.int64)
    np.testing.assert_array_equal(delta_decode(delta_encode(array)), array)


# ------------------------------------------------------------------- wpt
@given(st.floats(min_value=0.01, max_value=0.5),
       st.floats(min_value=0.3, max_value=1.0),
       st.floats(min_value=0.3, max_value=1.0),
       st.floats(min_value=1e-4, max_value=1.0))
@settings(max_examples=50)
def test_wpt_budget_dissipation_inverse(coupling, rect, reg, budget):
    link = InductiveLink(coupling=coupling, rectifier_efficiency=rect,
                         regulator_efficiency=reg)
    load = link.effective_budget(budget)
    assert link.implant_dissipation(load) == pytest.approx(budget)


@given(st.floats(min_value=0.01, max_value=0.5),
       st.floats(min_value=1e-4, max_value=0.1))
@settings(max_examples=40)
def test_wpt_conservation(coupling, load):
    # Delivered power never exceeds transmitted power.
    link = InductiveLink(coupling=coupling)
    assert link.transmit_power_for(load) >= load

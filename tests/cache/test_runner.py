"""Tests for the whole-driver runner's payload codec (repro.cache.runner)."""

from __future__ import annotations

import numpy as np

from repro.cache.runner import decode_result, encode_result


class TestEncodeDecode:
    def test_ndarray_roundtrips_exactly(self):
        array = np.random.default_rng(0).standard_normal((3, 5))
        again = decode_result(encode_result(array))
        assert again.dtype == array.dtype
        assert np.array_equal(again, array)

    def test_nested_structures(self):
        value = {"a": [np.arange(4), {"b": np.float64(2.5)}],
                 "c": "text", "d": None}
        again = decode_result(encode_result(value))
        assert np.array_equal(again["a"][0], np.arange(4))
        assert again["a"][1]["b"] == 2.5
        assert again["c"] == "text" and again["d"] is None

    def test_int_dtypes_survive(self):
        array = np.array([[1, 2], [3, 4]], dtype=np.int16)
        again = decode_result(encode_result(array))
        assert again.dtype == np.int16
        assert np.array_equal(again, array)

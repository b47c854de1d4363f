"""Parity tests: the vectorized power-ratio curves and frontier searches
must match their scalar reference evaluators point for point."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import event_stream
from repro.core.event_stream import EventStreamConfig, evaluate_event_stream
from repro.core.explorer import (
    _compressed_stream_ratio,
    _max_channels_compressed,
)
from repro.core.frontier import first_run_frontier, grid_frontier


def test_event_stream_curve_matches_scalar(bisc):
    config = EventStreamConfig()
    grid = np.array([64, 1024, 3000, 8192], dtype=np.int64)
    curve = event_stream.power_ratio_curve(bisc, grid, config)
    scalar = [evaluate_event_stream(bisc, int(n), config).power_ratio
              for n in grid]
    np.testing.assert_array_equal(curve, scalar)


def test_compressed_ratio_array_matches_scalar(bisc):
    grid = np.array([1, 512, 1024, 4096], dtype=np.int64)
    curve = _compressed_stream_ratio(bisc, grid, 3.0, 2e-7)
    scalar = [_compressed_stream_ratio(bisc, int(n), 3.0, 2e-7)
              for n in grid]
    np.testing.assert_array_equal(curve, scalar)


def test_compressed_frontier_matches_brute_force(bisc):
    n_limit = 3000
    exact = _max_channels_compressed(bisc, 3.0, 2e-7, n_limit=n_limit)
    dense = np.arange(1, n_limit + 1, dtype=np.int64)
    fits = _compressed_stream_ratio(bisc, dense, 3.0, 2e-7) <= 1.0
    brute = int(dense[np.flatnonzero(fits)[-1]]) if fits.any() else 0
    assert exact == brute


def test_grid_frontier_never_probes_past_limit():
    seen = []

    def curve(n):
        n = np.asarray(n)
        seen.append(int(n.max()))
        return n / 100.0

    assert grid_frontier(curve, n_limit=5000) == 100
    assert max(seen) <= 5000


def test_grid_frontier_edge_cases():
    assert grid_frontier(lambda n: np.asarray(n) * 0.0 + 2.0, 100) == 0
    assert grid_frontier(lambda n: np.asarray(n) * 0.0, 100) == 100
    with pytest.raises(ValueError):
        grid_frontier(lambda n: np.asarray(n, dtype=float), 0)


def test_first_run_frontier_matches_scan_semantics():
    grid = np.array([10, 20, 30, 40, 50])
    assert first_run_frontier(grid, [False, True, True, False, True]) == 30
    assert first_run_frontier(grid, [True] * 5) == 50
    assert first_run_frontier(grid, [False] * 5) == 0
    # A generator is read in step with the grid and not past the first
    # failure after a feasible point.
    read = []

    def fits():
        for ok in (False, True, True, False, True):
            read.append(ok)
            yield ok

    assert first_run_frontier(grid, fits()) == 30
    assert len(read) == 4


def test_max_channels_event_stream_is_exact_frontier(bisc):
    # A heavy detector makes the curve cross 1.0 inside the search range
    # so the exactness property (feasible at n, infeasible at n+1) is
    # actually exercised rather than clamped at n_limit.
    config = EventStreamConfig(detector_ops_per_sample=20000)
    frontier = event_stream.max_channels_event_stream(bisc, config)
    assert 0 < frontier < 1 << 20
    at = event_stream.power_ratio_curve(
        bisc, np.array([frontier], dtype=np.int64), config)
    past = event_stream.power_ratio_curve(
        bisc, np.array([frontier + 1], dtype=np.int64), config)
    assert float(at[0]) <= 1.0 < float(past[0])

"""Feasibility-frontier searches over channel grids.

The strategy evaluators all reduce "how far does this design scale?" to
finding the largest channel count n satisfying some feasibility predicate.
Historically each caller ran its own scalar doubling-plus-bisection or
step-scan loop; this module holds the two searches they share:

* :func:`grid_frontier` — for strategies whose power-ratio curve is
  monotone in n (all the linear dataflows), locates the *exact* integer
  frontier by evaluating whole grids of candidates per round instead of
  one scalar point per iteration.
* :func:`first_run_frontier` — the step scan with an early break (used
  where feasibility is only piecewise smooth), reading a feasibility
  sequence lazily so it can stop evaluating at the frontier.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

#: Below this bracket width the frontier is resolved by one dense pass.
_DENSE_LIMIT = 2048

#: Candidate points evaluated per narrowing round.
_PROBES_PER_ROUND = 65


def grid_frontier(ratio_curve: Callable[[np.ndarray], np.ndarray],
                  n_limit: int,
                  threshold: float = 1.0) -> int:
    """Largest integer n in [1, n_limit] with ``ratio_curve(n) <= threshold``.

    Args:
        ratio_curve: vectorized map from an int64 channel-count array to
            the power ratio at each count.  Feasibility must be a prefix
            property (the ratio is monotone non-decreasing in n) — true
            for every all-linear dataflow, whose ratio has the form
            ``a*n / (b*n + c)`` with ``c > 0``.
        n_limit: inclusive search ceiling; the curve is never evaluated
            beyond it.
        threshold: feasibility bound on the ratio.

    Returns:
        The exact frontier; 0 when even a single channel is infeasible,
        ``n_limit`` when the whole range fits.
    """
    if n_limit < 1:
        raise ValueError("n_limit must be at least 1")
    ends = ratio_curve(np.array([1, n_limit], dtype=np.int64))
    if float(ends[0]) > threshold:
        return 0
    if float(ends[1]) <= threshold:
        return n_limit
    lo, hi = 1, n_limit  # invariant: lo feasible, hi infeasible
    while hi - lo > _DENSE_LIMIT:
        grid = np.unique(np.linspace(lo, hi, _PROBES_PER_ROUND)
                         .astype(np.int64))
        fits = ratio_curve(grid) <= threshold
        feasible = np.flatnonzero(fits)
        infeasible = np.flatnonzero(~fits)
        lo = int(grid[feasible[-1]])  # grid[0] == lo is always feasible
        hi = int(grid[infeasible[0]])
    dense = np.arange(lo, hi + 1, dtype=np.int64)
    fits = ratio_curve(dense) <= threshold
    return int(dense[np.flatnonzero(fits)[-1]])


def first_run_frontier(grid: Iterable[int], fits: Iterable[bool]) -> int:
    """End of the first contiguous feasible run over a scanned grid.

    The step scan used where feasibility is only piecewise smooth::

        for n in grid:
            if fits(n): best = n
            elif best:  break

    Args:
        grid: scanned channel counts, ascending.
        fits: feasibility per grid point.  It is read in step with
            ``grid`` and not past the first failure after a feasible
            point, so a generator evaluates only the points the scan
            needs.

    Returns:
        The grid value ending the first feasible run, or 0 when no point
        fits.
    """
    best = 0
    for n, ok in zip(grid, fits):
        if ok:
            best = int(n)
        elif best:
            break
    return best

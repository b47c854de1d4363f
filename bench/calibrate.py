"""Host-speed probe: a fixed program that does the kind of work the
workloads do, without any ``repro`` code.

``python -m bench.calibrate`` imports numpy and the scipy modules the
package uses, then runs a fixed pure-Python and numpy computation.  The
benchmark times it a few times per run, interleaved with the workload,
and divides the workload's times by how much slower than
:data:`REFERENCE_S` the probe ran.  This host's speed drifts by up to a
factor of two over minutes as other tenants load it, and the probe
slows with it; a change to ``repro`` cannot move the probe.
"""

from __future__ import annotations

import math

#: The probe's median spawn-to-exit time on the reference host (2-CPU
#: x86-64, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, unloaded).
REFERENCE_S = 0.85


def _python_work() -> float:
    # Scalar solver-style code: bisection over a smooth function.
    total = 0.0
    for k in range(1, 15001):
        lo, hi = 0.0, 10.0 + k % 7
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if math.exp(-mid) * (1 + mid) > 0.5 / k:
                lo = mid
            else:
                hi = mid
        total += lo
    return total


def _numpy_work() -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    weights = rng.standard_normal((64, 64))
    x = rng.standard_normal((256, 64))
    for _ in range(1500):
        x = np.tanh(x @ weights) * 0.5
    return float(x.sum())


def main() -> int:
    import argparse  # noqa: F401  (what a CLI process loads)
    import csv  # noqa: F401
    import json  # noqa: F401

    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401

    _python_work()
    _numpy_work()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

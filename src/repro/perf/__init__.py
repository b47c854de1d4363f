"""Process fan-out for ``--jobs``: one forked child per attempt.

* :mod:`repro.perf.parallel` — :class:`Launcher` forks one child per
  task (at most ``jobs`` alive, each killed past its ``timeout_s``) and
  pickles its result and telemetry back over a pipe;
  :func:`run_parallel` runs the experiment drivers on it
  (``run_all(jobs=N)`` / ``python -m repro evaluate --jobs N``) with a
  bounded per-driver retry loop, merging each child's spans, metrics,
  and events into the parent in driver order.

Seed derivation, which makes serial and parallel runs of one base seed
byte-identical, lives in :mod:`repro.seeds`.  The vectorized hot
kernels live with the code they speed up, each pinned to its reference
implementation by a parity test under ``tests/``.  End-to-end timings
come from ``python -m bench run``; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from repro.perf.parallel import (
    Launcher,
    TaskFailed,
    merge_payload,
    resolve_jobs,
    run_parallel,
)

__all__ = ["Launcher", "TaskFailed", "merge_payload", "resolve_jobs",
           "run_parallel"]

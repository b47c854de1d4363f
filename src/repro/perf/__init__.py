"""Process fan-out for ``fleet --jobs``: one forked child per cohort.

* :mod:`repro.perf.parallel` — :class:`Launcher` forks one child per
  task (at most ``jobs`` alive) and pickles its result back over a
  pipe.  Its one caller is :func:`repro.fleet.run_fleet`.

Experiment drivers always run serially through
:func:`repro.experiments.run_module_resilient`.  Seed derivation, which
makes serial and sharded fleet runs of one base seed byte-identical,
lives in :mod:`repro.seeds`.  The vectorized hot kernels live with the
code they speed up, each pinned to its reference implementation by a
parity test under ``tests/``.  End-to-end timings come from ``python -m
bench run``; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from repro.perf.parallel import Launcher, TaskFailed, resolve_jobs

__all__ = ["Launcher", "TaskFailed", "resolve_jobs"]

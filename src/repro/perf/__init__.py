"""Performance engine: warm-worker parallel execution, zero-copy result
transport, and seed derivation.

* :mod:`repro.perf.parallel` — fan the experiment drivers out to the
  persistent warm-worker pool (``run_all(jobs=N)`` / ``python -m repro
  evaluate --jobs N``), merging each worker's spans, metrics, and events
  back into the parent's observability state in driver order.
* :mod:`repro.perf.pool` — the pool itself: workers spawned once, kept
  warm across ``run_parallel`` calls (:func:`get_pool` /
  :func:`shutdown_pool`), crashed or hung workers respawned with their
  segments quarantined.
* :mod:`repro.perf.shm` — shared-memory result transport: numeric
  result columns and telemetry export blocks cross the process boundary
  through a ``/dev/shm`` segment the parent adopts without a pickle
  round-trip, unlinked deterministically.
* :mod:`repro.perf.seeds` — deterministic per-driver and per-stream
  seed derivation, the mechanism that makes serial and parallel runs of
  the same base seed byte-identical (and whole-grid Monte-Carlo
  batching bit-exact per scheme).

The vectorized hot kernels themselves live with the code they speed up
(``repro.compress.rice``, ``repro.core.frontier``,
``repro.link.channel.measure_ber_sweep`` / ``measure_ber_grid``,
``repro.thermal.grid``), each pinned to its reference implementation
by a parity test under ``tests/``.  End-to-end timings come from
``python -m bench run``; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from repro.perf.parallel import resolve_jobs, run_parallel
from repro.perf.pool import (
    PoolTaskError,
    PoolTimeout,
    WarmPool,
    get_pool,
    shutdown_pool,
)
from repro.perf.seeds import derive_driver_seed, derive_stream_seed
from repro.perf.shm import (
    SHM_MIN_BYTES,
    pack_payload,
    reclaim_segment,
    segment_name,
    split_rows,
    unpack_payload,
)

__all__ = [
    "PoolTaskError",
    "PoolTimeout",
    "SHM_MIN_BYTES",
    "WarmPool",
    "derive_driver_seed",
    "derive_stream_seed",
    "get_pool",
    "pack_payload",
    "reclaim_segment",
    "resolve_jobs",
    "run_parallel",
    "segment_name",
    "shutdown_pool",
    "split_rows",
    "unpack_payload",
]

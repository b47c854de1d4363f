"""Population-scale closed-loop fleet engine.

Tens of thousands of concurrent closed-loop BCI sessions simulated as
batched NumPy state, grouped into cohorts (per-cohort decoder family,
drop rate, and nonstationarity schedule), with fleet-level dashboard
artifacts instead of single-session CSVs.  A 1-session cohort is
bit-exact against the single-session oracle
:func:`repro.simulate.cursor_task.run_closed_loop_session`.
"""

from repro.fleet.engine import (
    cohort_fault_seed,
    cohort_seed,
    run_cohort,
    run_fleet,
    simulate_cohort,
)
from repro.fleet.result import (
    SESSION_COLUMNS,
    CohortResult,
    SessionResult,
    summarize_cohort,
)
from repro.fleet.spec import DECODER_FAMILIES, CohortSpec, FleetSpec

__all__ = [
    "CohortSpec",
    "FleetSpec",
    "DECODER_FAMILIES",
    "SessionResult",
    "CohortResult",
    "SESSION_COLUMNS",
    "summarize_cohort",
    "cohort_seed",
    "cohort_fault_seed",
    "simulate_cohort",
    "run_cohort",
    "run_fleet",
]

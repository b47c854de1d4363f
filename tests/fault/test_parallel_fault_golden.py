"""Golden fault log of a parallel run: crash, give up, and time out.

``run_all(jobs=2)`` over four cheap drivers under one plan: ``table1``
crashes once (inside its one-retry budget), ``fig4`` crashes on every
attempt (beyond it), ``fig5`` hangs past a 0.5 s per-attempt timeout,
and ``fig8`` runs clean.  The fixtures under ``golden/`` pin the fault
log and the recorded-failure rows byte for byte: the order of fault
events (faults as attempts are submitted, then recoveries, then
failures, each in driver order) and the error texts of an injected
crash and of a timeout.  They were generated by the warm-worker pool
that preceded the fork-per-attempt engine (``run_parallel`` with the
same drivers, seed, plan and retry policy), so they also prove the two
engines agree.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import (fig4, fig5, fig8, is_recorded_failure,
                               run_all, run_module, table1)
from repro.fault import FaultInjector, FaultPlan, RetryPolicy, WorkerFaults

GOLDEN = Path(__file__).parent / "golden"


def test_parallel_fault_log_and_failure_rows_match_golden(tmp_path):
    plan = FaultPlan(
        seed=3,
        worker=WorkerFaults(crash={"table1": 1, "fig4": 9},
                            hang_s={"fig5": 5.0}),
        retry=RetryPolicy(max_retries=1, backoff_s=0.0, timeout_s=0.5))
    injector = FaultInjector(plan)
    results = run_all(output_dir=tmp_path, seed=7, jobs=2,
                      fault_plan=plan, injector=injector,
                      modules=[table1, fig4, fig5, fig8])

    log = injector.write_log(tmp_path / "fault_log.json")
    assert log.read_bytes() == (
        GOLDEN / "parallel_fault_log.json").read_bytes()
    rows = [row for result in results if is_recorded_failure(result)
            for row in result.rows]
    assert json.dumps(rows, indent=2, sort_keys=True) + "\n" == (
        GOLDEN / "parallel_failures.json").read_text(encoding="utf-8")
    # The recovered and the clean driver still match a serial run.
    for module in (table1, fig8):
        name = module.__name__.rsplit(".", 1)[-1]
        run_module(module, seed=7).save_csv(tmp_path / "serial")
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / "serial" / f"{name}.csv").read_bytes())

"""Golden fault log of a serial run: crash, recover, give up, slow down.

``run_all`` over four cheap drivers under one plan with a one-retry
budget and no backoff: ``table1`` crashes once (inside its budget),
``fig4`` crashes on every attempt (beyond it), ``fig5`` is slowed by
0.01 s, and ``fig8`` runs clean.  The fixtures under ``golden/`` pin
the fault log's ``events`` and ``counters`` and the recorded-failure
rows byte for byte: the order of fault events (each driver's
injections, then its recovery or failure, in driver order) and the
error text of an injected crash.  The ``plan`` echo is left out, so a
change to the plan schema does not move the fixture.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import (fig4, fig5, fig8, is_recorded_failure,
                               run_all, run_module, table1)
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan, RetryPolicy, WorkerFaults

GOLDEN = Path(__file__).parent / "golden"


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_serial_fault_log_and_failure_rows_match_golden(tmp_path):
    plan = FaultPlan(
        seed=3,
        worker=WorkerFaults(crash={"table1": 1, "fig4": 9},
                            slow_s={"fig5": 0.01}),
        retry=RetryPolicy(max_retries=1, backoff_s=0.0))
    injector = FaultInjector(plan)
    results = run_all(output_dir=tmp_path, seed=7, fault_plan=plan,
                      injector=injector,
                      modules=[table1, fig4, fig5, fig8])

    log = injector.log_dict()
    assert _dumps({"counters": log["counters"], "events": log["events"]}
                  ) == (GOLDEN / "serial_fault_log.json").read_text(
                      encoding="utf-8")
    rows = [row for result in results if is_recorded_failure(result)
            for row in result.rows]
    assert _dumps(rows) == (GOLDEN / "serial_failures.json").read_text(
        encoding="utf-8")
    assert (tmp_path / "fig4.csv").is_file()  # the failure row is saved
    # The recovered, the slowed and the clean driver still match a
    # fault-free run.
    for module in (table1, fig5, fig8):
        name = module.__name__.rsplit(".", 1)[-1]
        run_module(module, seed=7).save_csv(tmp_path / "serial")
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / "serial" / f"{name}.csv").read_bytes())

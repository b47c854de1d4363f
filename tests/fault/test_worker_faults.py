"""Worker crash/slow faults and the bounded-retry driver engine.

The headline contract from the chaos suite: a driver whose fault plan
crashes it within the retry budget still produces the rows of a
fault-free run — recovery is invisible in the artifacts, visible in the
fault log.  ``test_serial_fault_golden.py`` pins the same contract for
a whole ``run_all`` byte for byte.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import (ALL_EXPERIMENTS, FAILURE_COLUMNS,
                               experiment_name, is_recorded_failure,
                               run_module, run_module_resilient)
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan, RetryPolicy, WorkerFaults

#: The cheapest driver (a static table) — retried many times in here.
CHEAP = ALL_EXPERIMENTS[0]
CHEAP_NAME = experiment_name(CHEAP)


def _crash_plan(crashes: dict[str, int],
                max_retries: int = 2) -> FaultPlan:
    return FaultPlan(worker=WorkerFaults(crash=crashes),
                     retry=RetryPolicy(max_retries=max_retries,
                                       backoff_s=0.0))


class TestSerialResilience:
    def test_happy_path_matches_run_module(self):
        plain = run_module(CHEAP, seed=5)
        resilient = run_module_resilient(CHEAP, seed=5)
        assert resilient.rows == plain.rows
        assert resilient.title == plain.title
        assert resilient.fault_info is None
        assert not is_recorded_failure(resilient)

    def test_crash_within_budget_recovers(self):
        plan = _crash_plan({CHEAP_NAME: 2})
        injector = FaultInjector(plan)
        result = run_module_resilient(CHEAP, seed=5, max_retries=2,
                                      backoff_s=0.0, fault_plan=plan,
                                      injector=injector)
        assert result.rows == run_module(CHEAP, seed=5).rows
        assert result.fault_info == {"injected": 2, "recovered": 1,
                                     "failed": 0, "attempts": 3}
        assert injector.counters == {"injected": 2, "recovered": 1,
                                     "failed": 0}
        kinds = [event.kind for event in injector.events]
        assert kinds == ["crash", "crash", "recovered"]

    def test_exhausted_budget_degrades_to_recorded_failure(self):
        plan = _crash_plan({CHEAP_NAME: 99})
        injector = FaultInjector(plan)
        result = run_module_resilient(CHEAP, seed=5, max_retries=2,
                                      backoff_s=0.0, fault_plan=plan,
                                      injector=injector)
        assert is_recorded_failure(result)
        assert result.columns == list(FAILURE_COLUMNS)
        [row] = result.rows
        assert row["driver"] == CHEAP_NAME
        assert row["status"] == "failed"
        assert row["attempts"] == 3
        assert "InjectedWorkerFault" in row["error"]
        assert injector.counters["failed"] == 1
        assert result.fault_info["failed"] == 1

    def test_slow_fault_is_logged_but_harmless(self):
        plan = FaultPlan(worker=WorkerFaults(slow_s={CHEAP_NAME: 0.01}))
        injector = FaultInjector(plan)
        result = run_module_resilient(CHEAP, seed=5, fault_plan=plan,
                                      injector=injector)
        assert not is_recorded_failure(result)
        assert result.rows == run_module(CHEAP, seed=5).rows
        [event] = injector.events
        assert event.kind == "slow" and event.target == CHEAP_NAME

    def test_backoff_doubles(self, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        plan = FaultPlan(worker=WorkerFaults(crash={CHEAP_NAME: 3}))
        result = run_module_resilient(CHEAP, seed=5, max_retries=3,
                                      backoff_s=0.25, fault_plan=plan)
        assert not is_recorded_failure(result)
        assert slept == [0.25, 0.5, 1.0]

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ValueError):
            run_module_resilient(CHEAP, max_retries=-1)

"""Tests for the fork-per-task launcher behind ``fleet --jobs`` and for
per-driver seeding.

The launcher's contracts: a fresh child per task, payloads by handle
with values and types intact, a dead child reports its exit code, and
no child outlives a run.  A sharded fleet run writes a timeline
byte-identical to a serial run (children emit nothing; the fleet driver
records its spans and gauges in the parent) and leaves a fresh
interpreter with nothing on stderr.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import recorder
from repro.experiments import ALL_EXPERIMENTS, run_module
from repro.experiments.fleet import run_spec
from repro.fleet import CohortSpec, FleetSpec
from repro.perf import Launcher, TaskFailed, resolve_jobs
from repro.seeds import derive_driver_seed

class TestDeriveDriverSeed:
    def test_none_passes_through(self):
        assert derive_driver_seed(None, "fig5") is None

    def test_deterministic(self):
        assert (derive_driver_seed(42, "fig5")
                == derive_driver_seed(42, "fig5"))

    def test_distinct_per_driver_and_seed(self):
        seeds = {derive_driver_seed(42, name)
                 for name in ("fig5", "fig7", "fig8", "table1")}
        assert len(seeds) == 4
        assert derive_driver_seed(42, "fig5") != derive_driver_seed(
            43, "fig5")

    def test_fits_numpy_seed_range(self):
        value = derive_driver_seed(2**31, "fig7")
        assert 0 <= value < 2**63
        np.random.default_rng(value)  # must be a legal seed


class TestResolveJobs:
    def test_explicit_count(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cpus(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestLauncher:
    def test_each_task_gets_a_fresh_child(self):
        with Launcher(1) as launcher:
            handles = [launcher.submit(os.getpid) for _ in range(3)]
            pids = [launcher.wait(h) for h in handles]
        assert len(set(pids)) == 3
        assert os.getpid() not in pids
        assert gc.get_freeze_count() == 0  # the parent collects again

    def test_payloads_come_back_by_handle(self):
        with Launcher(2) as launcher:
            slow = launcher.submit(lambda: time.sleep(0.2) or "slow")
            fast = launcher.submit(lambda: "fast")
            assert launcher.wait(fast) == "fast"
            assert launcher.wait(slow) == "slow"

    def test_raising_task_reports_type_and_message(self):
        def boom():
            raise ValueError("boom")
        with Launcher(1) as launcher:
            with pytest.raises(TaskFailed, match="^ValueError: boom$"):
                launcher.wait(launcher.submit(boom))

    def test_dead_child_reports_its_exit_code(self):
        with Launcher(1) as launcher:
            dead = launcher.submit(lambda: os._exit(3))
            alive = launcher.submit(lambda: "alive")
            with pytest.raises(TaskFailed,
                               match="^WorkerDied: exit code 3$"):
                launcher.wait(dead)
            assert launcher.wait(alive) == "alive"
        assert multiprocessing.active_children() == []

    def test_results_keep_values_and_types(self):
        modules = list(ALL_EXPERIMENTS[:4])
        with Launcher(2) as launcher:
            handles = [launcher.submit(
                lambda module=module: run_module(module, seed=5))
                for module in modules]
            forked = [launcher.wait(h) for h in handles]
        for module, result in zip(modules, forked):
            serial = run_module(module, seed=5)
            assert result.rows == serial.rows
            assert result.summary == serial.summary
            assert ([[type(v) for v in row.values()]
                     for row in result.rows]
                    == [[type(v) for v in row.values()]
                        for row in serial.rows])

    def test_needs_at_least_one_slot(self):
        with pytest.raises(ValueError):
            Launcher(0)


def _small_fleet() -> FleetSpec:
    base = dict(n_sessions=3, n_trials=2, train_timesteps=60,
                timeout_s=1.0)
    return FleetSpec([CohortSpec(name=f"merge_{decoder}", decoder=decoder,
                                 **base)
                      for decoder in ("kalman", "wiener", "dnn")])


def _timeline(jobs: int) -> str:
    recorder.reset()
    recorder.enable()
    try:
        with recorder.driver_scope("fleet"):
            run_spec(_small_fleet(), 5, jobs=jobs)
        return recorder.RECORDER.to_jsonl()
    finally:
        recorder.disable()
        recorder.reset()


class TestShardedFleet:
    def test_timeline_matches_serial_byte_for_byte(self):
        serial = _timeline(jobs=1)
        first = _timeline(jobs=2)
        assert '"fleet.run"' in first  # the driver's span, not empty
        assert first == _timeline(jobs=2) == serial
        events = [json.loads(line) for line in first.splitlines()]
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_fresh_interpreter_exits_cleanly(self):
        script = (
            "from repro.fleet import CohortSpec, FleetSpec, run_fleet\n"
            "cohorts = [CohortSpec(name=n, n_sessions=2, n_trials=2, "
            "train_timesteps=60, timeout_s=1.0) for n in 'abc']\n"
            "run_fleet(FleetSpec(cohorts), 3, jobs=2)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=300, env=env,
            cwd=Path(__file__).parents[2])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

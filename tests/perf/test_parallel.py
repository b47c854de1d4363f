"""Tests for the fork-per-attempt engine and per-driver seeding.

The headline contract: ``run_all(jobs=N, seed=S)`` writes CSVs
byte-identical to a serial ``run_all(seed=S)`` — the per-driver seed
derivation makes artifacts a function of (seed, driver name) only, never
of scheduling.  The launcher's own contracts: a fresh child per task,
results in submission order, a dead child reports its exit code, a
child past its timeout is killed, and no child outlives a run.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.experiments import (ALL_EXPERIMENTS, experiment_name,
                               is_recorded_failure, run_all, run_module)
from repro.fault import FaultPlan, RetryPolicy, WorkerFaults
from repro.perf import Launcher, TaskFailed, resolve_jobs, run_parallel
from repro.seeds import derive_driver_seed

CHEAP = ALL_EXPERIMENTS[0]
CHEAP_NAME = experiment_name(CHEAP)


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


def _csv_bytes(directory):
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("*.csv"))}


def _dying_driver(exit_code: int) -> types.ModuleType:
    """A driver whose process exits mid-run without replying."""
    module = types.ModuleType("repro.experiments.dying")
    module.run = lambda: os._exit(exit_code)
    return module


class TestLauncher:
    def test_each_task_gets_a_fresh_child(self):
        with Launcher(1) as launcher:
            handles = [launcher.submit(os.getpid) for _ in range(3)]
            pids = [launcher.wait(h)["result"] for h in handles]
        assert len(set(pids)) == 3
        assert os.getpid() not in pids
        assert gc.get_freeze_count() == 0  # the parent collects again

    def test_payloads_come_back_by_handle(self):
        with Launcher(2) as launcher:
            slow = launcher.submit(lambda: time.sleep(0.2) or "slow")
            fast = launcher.submit(lambda: "fast")
            assert launcher.wait(fast)["result"] == "fast"
            assert launcher.wait(slow)["result"] == "slow"

    def test_raising_task_reports_type_and_message(self):
        def boom():
            raise ValueError("boom")
        with Launcher(1) as launcher:
            with pytest.raises(TaskFailed, match="^ValueError: boom$"):
                launcher.wait(launcher.submit(boom))

    def test_dead_child_reports_its_exit_code(self):
        with Launcher(1) as launcher:
            with pytest.raises(TaskFailed,
                               match="^WorkerDied: exit code 3$"):
                launcher.wait(launcher.submit(lambda: os._exit(3)))

    def test_child_past_timeout_is_killed(self):
        start = time.monotonic()
        with Launcher(1, timeout_s=0.3) as launcher:
            with pytest.raises(TaskFailed, match="^timeout$"):
                launcher.wait(launcher.submit(lambda: time.sleep(30)))
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == []

    def test_needs_at_least_one_slot(self):
        with pytest.raises(ValueError):
            Launcher(0)


class TestParallelRunAll:
    def test_parallel_csvs_byte_identical_to_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_all(output_dir=serial_dir, seed=7)
        parallel = run_all(output_dir=parallel_dir, seed=7, jobs=4)

        assert _csv_bytes(serial_dir) == _csv_bytes(parallel_dir)
        assert len(_csv_bytes(serial_dir)) == len(ALL_EXPERIMENTS)
        assert [r.title for r in serial] == [r.title for r in parallel]
        assert all(r.seed == 7 for r in serial + parallel)
        assert ([r.derived_seed for r in serial]
                == [r.derived_seed for r in parallel])

    def test_more_drivers_than_slots_match_serial_twice(self, tmp_path):
        """Four drivers through two slots: no state carries over from
        one attempt to the next, so two parallel runs and the serial
        engine write the same bytes."""
        modules = list(ALL_EXPERIMENTS[:4])
        for module in modules:
            run_module(module, seed=11).save_csv(tmp_path / "serial")
        run_parallel(modules, output_dir=tmp_path / "a", seed=11, jobs=2)
        run_parallel(modules, output_dir=tmp_path / "b", seed=11, jobs=2)
        assert (_csv_bytes(tmp_path / "serial")
                == _csv_bytes(tmp_path / "a")
                == _csv_bytes(tmp_path / "b"))

    def test_results_keep_values_and_types(self, tmp_path):
        modules = list(ALL_EXPERIMENTS[:4])
        parallel = run_parallel(modules, output_dir=tmp_path, seed=5,
                                jobs=2)
        for module, result in zip(modules, parallel):
            serial = run_module(module, seed=5)
            assert result.rows == serial.rows
            assert result.summary == serial.summary
            assert ([[type(v) for v in row.values()]
                     for row in result.rows]
                    == [[type(v) for v in row.values()]
                        for row in serial.rows])

    def test_dead_child_degrades_and_the_run_goes_on(self, tmp_path):
        results = run_parallel([_dying_driver(3), CHEAP],
                               output_dir=tmp_path, jobs=1, seed=5,
                               max_retries=1, backoff_s=0.0)
        assert is_recorded_failure(results[0])
        assert results[0].rows[0] == {
            "driver": "dying", "status": "failed", "attempts": 2,
            "error": "WorkerDied: exit code 3"}
        assert not is_recorded_failure(results[1])
        assert multiprocessing.active_children() == []

    def test_hung_driver_is_killed_at_its_timeout(self, tmp_path):
        plan = FaultPlan(worker=WorkerFaults(hang_s={CHEAP_NAME: 30.0}),
                         retry=RetryPolicy(max_retries=0, backoff_s=0.0))
        start = time.monotonic()
        [result] = run_parallel([CHEAP], output_dir=tmp_path, jobs=1,
                                seed=5, max_retries=0, timeout_s=0.5,
                                fault_plan=plan)
        assert result.rows[0]["error"] == "timeout"
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == []

    def test_fresh_interpreter_exits_cleanly(self, tmp_path):
        script = (
            "from repro.experiments import ALL_EXPERIMENTS\n"
            "from repro.perf import run_parallel\n"
            f"run_parallel(list(ALL_EXPERIMENTS[:3]), "
            f"output_dir={str(tmp_path)!r}, jobs=2, seed=3)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=300, env=env,
            cwd=Path(__file__).parents[2])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_results_come_back_in_input_order(self, tmp_path):
        modules = list(ALL_EXPERIMENTS[:3])
        results = run_parallel(modules, output_dir=tmp_path, jobs=2,
                               seed=11)
        expected = [derive_driver_seed(11, experiment_name(m))
                    for m in modules]
        assert [r.derived_seed for r in results] == expected

    def test_worker_events_adopted_in_submission_order(self, tmp_path):
        modules = list(ALL_EXPERIMENTS[:3])
        obs.enable_all()  # events ride on the trace/metrics substrates
        try:
            run_parallel(modules, output_dir=tmp_path, jobs=2, seed=5)
            drivers = [e.driver for e in obs.EVENTS.events
                       if e.driver != ""]
            # each driver's block is contiguous and in submission order
            order = list(dict.fromkeys(drivers))
            assert order == [experiment_name(m) for m in modules]
            seqs = [e.seq for e in obs.EVENTS.events]
            assert seqs == list(range(len(seqs)))
        finally:
            obs.disable_all()
            obs.reset_all()

    def test_worker_spans_and_metrics_merge(self, tmp_path):
        obs.enable_all()
        try:
            run_parallel(list(ALL_EXPERIMENTS[:2]), output_dir=tmp_path,
                         jobs=2, seed=3)
            roots = obs.TRACER.roots
            names = {root.name for root in roots}
            assert "experiments.run_parallel" in names
            worker_roots = [root for root in roots
                            if root.name != "experiments.run_parallel"]
            assert worker_roots
            assert all("worker_pid" in root.attrs
                       for root in worker_roots)
            snapshot = obs.REGISTRY.snapshot()
            assert snapshot["counters"].get(
                "experiments.parallel_runs") == 2
        finally:
            obs.disable_all()
            obs.reset_all()


class TestEventTimelineDeterminism:
    """ISSUE 6 headline property: fixed-seed event timelines are
    byte-identical across repetitions within a mode, and serial vs
    parallel runs show zero driver-scoped deltas."""

    def _timeline(self, tmp_path, name, seed, jobs):
        obs.reset_all()
        obs.enable_all()  # events ride on the trace/metrics substrates
        try:
            run_all(output_dir=tmp_path / name, seed=seed, jobs=jobs)
            return obs.EVENTS.to_jsonl()
        finally:
            obs.disable_all()
            obs.reset_all()

    def test_jobs4_timeline_byte_identical_across_runs(self, tmp_path):
        first = self._timeline(tmp_path, "p1", seed=7, jobs=4)
        second = self._timeline(tmp_path, "p2", seed=7, jobs=4)
        assert first == second
        assert first  # non-empty: the drivers actually emitted

    def test_serial_vs_parallel_diff_is_zero_deltas(self, tmp_path):
        from repro.obs.analyze import diff_runs
        serial = self._timeline(tmp_path, "s", seed=7, jobs=None)
        parallel = self._timeline(tmp_path, "p", seed=7, jobs=4)
        serial_events = [json.loads(line)
                         for line in serial.splitlines()]
        parallel_events = [json.loads(line)
                           for line in parallel.splitlines()]
        report = diff_runs(serial_events, parallel_events)
        assert report["equal"], report

"""Process fan-out behind ``--jobs``: one forked child per attempt.

:class:`Launcher` forks one child per submitted task and keeps at most
``jobs`` children alive.  Each child resets the process-wide tracer,
metrics registry and event log it inherited, runs its task, pickles
``{result, spans, metrics, events}`` back over a pipe, and exits.  The
parent waits on the pipes with :func:`multiprocessing.connection.wait`:

* a task that raises reports ``"<ExceptionType>: <message>"``;
* a child that dies without replying reports ``"WorkerDied: exit code
  N"``;
* a child still running ``timeout_s`` after it was forked is killed
  and reports ``"timeout"``.

Forking (not spawning) is deliberate: a child starts with the parent's
imports loaded, so a task is any callable — it closes over driver
modules, fault plans and cohort specs directly, and nothing is
re-imported or pickled on the way in.  The engine starts no threads of
its own.  A fresh child per attempt also means no RNG or observability
state can leak from one task into the next.

:func:`run_parallel` (``evaluate --jobs N``) adds the per-driver retry
loop on top, and :func:`repro.fleet.run_fleet` (``fleet --jobs N``)
shards cohorts with it.  Both fold every child's telemetry into the
parent *in submission order* (:func:`merge_payload`), never completion
order, which keeps ``events.jsonl`` byte-identical to a serial run.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from collections import deque
from multiprocessing import connection
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.obs import events as _events
from repro.obs import manifest as _manifest
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.trace import span, span_from_dict

__all__ = ["Launcher", "TaskFailed", "merge_payload", "resolve_jobs",
           "run_parallel"]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one worker per
    CPU; negative values are rejected."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be positive (or 0 for all CPUs)")
    return jobs


class TaskFailed(RuntimeError):
    """One attempt failed; the message is the recorded error text."""


def _child_main(conn, task: Callable[[], Any]) -> None:
    """Forked child: run one task and send its payload to the parent."""
    _trace.TRACER.reset()
    _metrics.REGISTRY.reset()
    _events.EVENTS.reset()
    try:
        payload = {"result": task(), "pid": os.getpid(),
                   "spans": _trace.TRACER.to_dicts(),
                   "metrics": _metrics.REGISTRY.export_state(),
                   "events": _events.EVENTS.to_dicts()}
    except Exception as error:
        payload = {"error": f"{type(error).__name__}: {error}"}
    conn.send(payload)
    conn.close()


class Launcher:
    """Run callables in forked children, at most ``jobs`` at a time.

    Tasks start in submission order as slots free up.  Use as a context
    manager: leaving it kills whatever is still running.
    """

    def __init__(self, jobs: int, timeout_s: float | None = None) -> None:
        if jobs < 1:
            raise ValueError("a launcher needs at least one slot")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self._ctx = multiprocessing.get_context("fork")
        self._next = 0
        self._queue: deque[tuple[int, Callable[[], Any]]] = deque()
        # handle -> (process, read end, deadline or None)
        self._running: dict[int, tuple[Any, Any, float | None]] = {}
        self._done: dict[int, dict[str, Any]] = {}

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._queue.clear()
        for handle in list(self._running):
            self._finish(handle, {"error": "cancelled"}, kill=True)
        gc.unfreeze()

    def submit(self, task: Callable[[], Any]) -> int:
        """Queue one task; returns the handle :meth:`wait` takes."""
        handle = self._next
        self._next += 1
        self._queue.append((handle, task))
        self._start_queued()
        return handle

    def wait(self, handle: int) -> dict[str, Any]:
        """Block until one task finishes; return its payload.

        Raises:
            TaskFailed: the task raised, its child died, or it timed
                out.
        """
        while handle not in self._done:
            self._start_queued()
            deadlines = [deadline for _, _, deadline
                         in self._running.values() if deadline is not None]
            timeout = (None if not deadlines
                       else max(0.0, min(deadlines) - time.monotonic()))
            ready = connection.wait(
                [conn for _, conn, _ in self._running.values()], timeout)
            for ready_handle, (_, conn, _) in list(self._running.items()):
                if conn in ready:
                    self._collect(ready_handle, conn)
            now = time.monotonic()
            for late, (_, _, deadline) in list(self._running.items()):
                if deadline is not None and now >= deadline:
                    self._finish(late, {"error": "timeout"}, kill=True)
        payload = self._done.pop(handle)
        if "error" in payload:
            raise TaskFailed(payload["error"])
        return payload

    def _start_queued(self) -> None:
        while self._queue and len(self._running) < self.jobs:
            handle, task = self._queue.popleft()
            reader, writer = self._ctx.Pipe(duplex=False)
            # Otherwise each child's full collections walk every
            # inherited object and copy each page they touch, once per
            # attempt (about 5% of a fleet cohort's time).  __exit__
            # hands the objects back to the parent's collector.
            gc.freeze()
            process = self._ctx.Process(target=_child_main,
                                        args=(writer, task), daemon=True)
            process.start()
            writer.close()  # the child's copy is the only writer left
            deadline = (None if self.timeout_s is None
                        else time.monotonic() + self.timeout_s)
            self._running[handle] = (process, reader, deadline)

    def _collect(self, handle: int, conn) -> None:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            process = self._running[handle][0]
            process.join()
            payload = {"error": f"WorkerDied: exit code {process.exitcode}"}
        self._finish(handle, payload)

    def _finish(self, handle: int, payload: dict[str, Any],
                kill: bool = False) -> None:
        process, conn, _ = self._running.pop(handle)
        if kill:
            process.kill()
        process.join()
        conn.close()
        self._done[handle] = payload


def merge_payload(payload: dict[str, Any]) -> None:
    """Fold one child's span forest, metrics, and timeline events into
    the parent's process-wide observability state.

    Called in submission order (never completion order), so the merged
    event timeline is deterministic for a fixed seed.
    """
    roots = []
    for record in payload["spans"]:
        root = span_from_dict(record)
        root.attrs.setdefault("worker_pid", payload["pid"])
        roots.append(root)
    _trace.TRACER.adopt(roots)
    _metrics.REGISTRY.merge_state(payload["metrics"])
    _events.EVENTS.adopt(payload["events"])


def run_parallel(modules: Sequence[Any],
                 output_dir: Path | str,
                 jobs: int | None = None,
                 seed: int | None = None,
                 cache: bool = False,
                 max_retries: int = 2,
                 backoff_s: float = 0.25,
                 timeout_s: float | None = None,
                 fault_plan: Any = None,
                 injector: Any = None) -> list[Any]:
    """Run experiment drivers in forked children, one per attempt.

    Args:
        modules: driver modules (each with ``run``/``render``), as in
            :data:`repro.experiments.ALL_EXPERIMENTS`.
        output_dir: destination for the per-driver CSVs + manifests
            (written by the children).
        jobs: children alive at once; ``None``/``0`` uses every CPU.
        seed: base run seed; each driver derives its own from it
            (:func:`repro.seeds.derive_driver_seed`), identically to
            the serial path.
        cache: probe the content-addressed cache under ``output_dir``
            parent-side and short-circuit hits before anything is
            submitted; misses run in children with the store active
            (see :mod:`repro.cache`).
        max_retries: extra attempts per driver after a failed one;
            always bounded.
        backoff_s: base of the exponential backoff slept before each
            retry (``backoff_s * 2**(attempt-1)``); 0 retries
            immediately.
        timeout_s: per-attempt wall-clock bound; a child still running
            that long after its fork is killed and the attempt fails
            with ``"timeout"``.
        fault_plan: optional :class:`repro.fault.plan.FaultPlan` whose
            worker faults the children apply (crash/slow/hang per
            driver+attempt).
        injector: optional :class:`repro.fault.injector.FaultInjector`
            that accounts worker faults parent-side (created on the
            fly when a plan is given without one).

    Returns:
        The :class:`~repro.experiments.base.ExperimentResult` objects in
        the order of ``modules`` (not completion order).  A driver that
        exhausts its retry budget yields a recorded-failure result
        (:func:`repro.experiments.is_recorded_failure`) instead of
        raising — one bad driver degrades, the run completes.
    """
    from repro.experiments import _failure_result, experiment_name, run_module

    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    jobs = resolve_jobs(jobs)
    if seed is None:
        seed = _manifest.current_seed()
    names = [experiment_name(module) for module in modules]
    if injector is None and fault_plan is not None:
        from repro.fault.injector import FaultInjector
        injector = FaultInjector(fault_plan)

    # Cache short-circuit: probe silently, before anything is submitted.
    probes: dict[str, Any] = {}
    store = None
    if cache:
        from repro.cache import probe_driver, run_and_save_cached, store_for
        store = store_for(output_dir)
        for name, module in zip(names, modules):
            probe = probe_driver(module, seed=seed, store=store)
            if probe.hit:
                probes[name] = probe

    def submit(launcher: Launcher, module: Any, name: str,
               attempt: int) -> int:
        kind, seconds = (fault_plan.worker.fault_for(name, attempt)
                         if fault_plan is not None else (None, 0.0))
        if kind is not None:
            injector.record_worker_fault(name, attempt, kind,
                                         seconds=seconds)

        def task() -> Any:
            if kind == "crash":
                from repro.fault.plan import InjectedWorkerFault
                raise InjectedWorkerFault(name, attempt)
            if seconds > 0:
                time.sleep(seconds)
            if cache:
                return run_and_save_cached(module, output_dir, seed=seed)
            result = run_module(module, seed=seed)
            result.save_csv(output_dir)
            return result
        return launcher.submit(task)

    # Per driver, one of: ("payload", payload, attempts),
    # ("hit", probe, None), ("failure", attempts, error).
    outcomes: list[tuple[str, Any, Any]] = []
    with span("experiments.run_parallel", jobs=jobs,
              n_experiments=len(names)), \
            Launcher(jobs, timeout_s=timeout_s) as launcher:
        handles = {name: submit(launcher, module, name, 0)
                   for name, module in zip(names, modules)
                   if name not in probes}
        for name, module in zip(names, modules):
            if name in probes:
                outcomes.append(("hit", probes[name], None))
                continue
            handle = handles[name]
            payload = None
            error_text = ""
            attempts_used = 0
            # Bounded retry: at most max_retries resubmissions.
            for attempt in range(max_retries + 1):
                attempts_used = attempt + 1
                if attempt > 0:
                    if backoff_s > 0:
                        time.sleep(backoff_s * 2.0 ** (attempt - 1))
                    _metrics.inc("experiments.retries")
                    handle = submit(launcher, module, name, attempt)
                try:
                    payload = launcher.wait(handle)
                except TaskFailed as error:
                    _metrics.inc("experiments.worker_failures")
                    error_text = str(error)
                    continue
                break
            if payload is None:
                outcomes.append(("failure", attempts_used, error_text))
            else:
                outcomes.append(("payload", payload, attempts_used))

    results: list[Any] = []
    failures: list[tuple[int, str, int, str]] = []
    for index, (name, outcome) in enumerate(zip(names, outcomes)):
        kind, first, second = outcome
        if kind == "failure":
            failures.append((index, name, first, second))
            continue
        if kind == "hit":
            # Replay in driver order so cache events interleave exactly
            # as a serial cached run's would.
            result = run_and_save_cached(modules[index], output_dir,
                                         seed=seed, store=store,
                                         probe=first)
            results.append(result)
            continue
        payload, attempts = first, second
        merge_payload(payload)
        result = payload["result"]
        if attempts > 1:
            result.fault_info = {"injected": attempts - 1, "recovered": 1,
                                 "failed": 0, "attempts": attempts}
            result.save_manifest(output_dir)
            if injector is not None:
                injector.record_recovered("worker", target=name,
                                          attempts=attempts)
        results.append(result)
    for index, name, attempts, error in failures:
        if injector is not None:
            injector.record_failed("worker", target=name,
                                   attempts=attempts)
        result = _failure_result(name, attempts=attempts, error=error,
                                 seed=seed)
        result.save_csv(output_dir)
        results.insert(index, result)
        _metrics.inc("experiments.recorded_failures")
    _metrics.inc("experiments.parallel_runs", len(names))
    return results

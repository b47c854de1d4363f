"""Persistent warm-worker pool behind the parallel experiment engine.

:class:`WarmPool` replaces the per-call ``ProcessPoolExecutor`` churn:
workers are spawned once (fork start method where available), import the
driver closure on their first task, and then serve many driver
invocations over a task pipe — a warm worker runs a driver at the cost
of the driver alone, no interpreter or import startup.  The module-level
:func:`get_pool` keeps one pool alive across ``run_parallel`` calls for
the life of the process (``python -m repro evaluate --jobs N`` twice in
one process pays pool startup once).

Scheduling is deterministic where it matters: tasks go to the
lowest-numbered idle worker, and the *parent* collects results in
submission order regardless of completion order, so which worker ran
which driver never shows in artifacts or event timelines.

Fault containment, matching the contracts of
``tests/fault/test_worker_faults.py``:

* an injected worker *crash* really kills the worker process (it sends
  its error reply, then ``os._exit``) — the parent reaps it, respawns a
  fresh worker, and retries within the bounded budget;
* a *timeout* kills the hung worker outright (no abandoned-worker
  drain), respawns, and reports ``"timeout"``;
* either way the parent reclaims the dead task's shared-memory segment
  (:func:`repro.perf.shm.reclaim_segment`) — parent-chosen names make
  quarantine possible without hearing from the worker.
"""

from __future__ import annotations

import atexit
import os
import secrets
import time
from collections import deque
from multiprocessing import connection
from typing import Any

from repro.perf import shm as _shm

__all__ = ["WarmPool", "PoolTaskError", "PoolTimeout", "get_pool",
           "shutdown_pool"]

#: Exit code of a worker that self-destructs after an injected crash.
_CRASH_EXIT = 70

#: Test hook (read in the worker, inherited via fork at spawn time):
#: name a driver here and the worker running it dies *after* writing its
#: shared-memory segment but *before* replying — the crash-mid-write
#: scenario the quarantine path exists for.
_EXIT_AFTER_PACK_ENV = "REPRO_TEST_EXIT_AFTER_PACK"


class PoolTaskError(RuntimeError):
    """A task attempt failed (worker error, injected crash, or death)."""


class PoolTimeout(PoolTaskError):
    """A task attempt exceeded its wall-clock bound."""

    def __str__(self) -> str:  # the recorded-failure error text
        return "timeout"


def _describe(error: BaseException) -> str:
    """Compact one-line description of a worker-side failure."""
    return f"{type(error).__name__}: {error}"


def _execute_task(task: dict[str, Any]) -> dict[str, Any]:
    """Worker side: run one driver task and pack its payload.

    Mirrors the serial :func:`repro.experiments.run_module` path
    exactly — per-driver seed derivation happens inside ``run_module``,
    and the worker resets the process-wide tracer/registry/event log
    first so no observability state (or RNG state: every draw flows
    from the derived seed installed per task) bleeds between tasks on
    a reused worker.
    """
    import importlib

    from repro.obs import events as _events
    from repro.obs import metrics as _metrics
    from repro.obs import trace as _trace

    name = task["name"]
    _trace.TRACER.reset()
    _metrics.REGISTRY.reset()
    _events.EVENTS.reset()
    (_trace.enable if task["trace_on"] else _trace.disable)()
    (_metrics.enable if task["metrics_on"] else _metrics.disable)()
    (_events.enable if task["events_on"] else _events.disable)()

    try:
        if task["plan"] is not None:
            from repro.fault.plan import FaultPlan, InjectedWorkerFault
            plan = FaultPlan.from_dict(task["plan"])
            kind, seconds = plan.worker.fault_for(name, task["attempt"])
            if kind == "crash":
                raise InjectedWorkerFault(name, task["attempt"])
            if kind in ("slow", "hang") and seconds > 0:
                time.sleep(seconds)

        if task.get("kind") == "fleet_cohort":
            from repro.fleet.engine import run_cohort_task
            result = run_cohort_task(task)
        else:
            from repro.experiments import run_module
            module = importlib.import_module(
                f"repro.experiments.{name}")
            if task["cache"]:
                from repro.cache import run_and_save_cached
                result = run_and_save_cached(module,
                                             task["output_dir"],
                                             seed=task["seed"])
            else:
                result = run_module(module, seed=task["seed"])
                result.save_csv(task["output_dir"])
        payload = {
            "name": name,
            "pid": os.getpid(),
            "result": result,
            "spans": (_trace.TRACER.to_dicts()
                      if task["trace_on"] else []),
            "metrics": (_metrics.REGISTRY.export_state()
                        if task["metrics_on"] else None),
            "events": (_events.EVENTS.to_dicts()
                       if task["events_on"] else []),
        }
        header = _shm.pack_payload(payload, segment=task["segment"],
                                   min_bytes=task["shm_min_bytes"])
        if os.environ.get(_EXIT_AFTER_PACK_ENV) == name:
            os._exit(_CRASH_EXIT)  # simulated death between write+reply
        return {"ok": True, "task_id": task["task_id"],
                "header": header}
    except Exception as error:
        exit_after = type(error).__name__ == "InjectedWorkerFault"
        return {"ok": False, "task_id": task["task_id"],
                "error": _describe(error), "exit": exit_after}


def _worker_main(child_conn, parent_conn=None) -> None:
    """Warm-worker serve loop: handle tasks until sentinel or EOF."""
    if parent_conn is not None:
        parent_conn.close()  # let the parent's EOF detection work
    while True:
        try:
            task = child_conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        reply = _execute_task(task)
        try:
            child_conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        if reply.get("exit"):
            child_conn.close()
            os._exit(_CRASH_EXIT)  # injected crash: die for real
    child_conn.close()


class _Worker:
    """Parent-side handle on one pool process."""

    __slots__ = ("id", "proc", "conn", "task_id", "served")

    def __init__(self, worker_id: int, proc, conn) -> None:
        self.id = worker_id
        self.proc = proc
        self.conn = conn
        self.task_id: int | None = None  # task currently running
        self.served = 0


class WarmPool:
    """A fixed-size pool of persistent warm workers.

    Tasks are dicts (see :meth:`submit`); results come back through
    :meth:`wait` as shared-memory transport headers
    (:mod:`repro.perf.shm`).  One pool instance may serve many
    ``run_parallel`` calls — see :func:`get_pool`.
    """

    def __init__(self, jobs: int, mp_context=None) -> None:
        if jobs < 1:
            raise ValueError("a pool needs at least one worker")
        if mp_context is None:
            from repro.perf.parallel import _pool_context
            mp_context = _pool_context()
        self.jobs = jobs
        self._ctx = mp_context
        # Segment names must not collide with leftovers of crashed
        # *previous* processes (pids recycle), hence the random tag —
        # names are infrastructure, never recorded in any artifact.
        self._tag = f"{os.getpid():x}-{secrets.token_hex(3)}"
        self._next_task = 0
        self._queue: deque[int] = deque()
        self._tasks: dict[int, dict[str, Any]] = {}
        self._closed = False
        self.respawns = 0
        self.tasks_completed = 0
        self._workers = [self._spawn(index) for index in range(jobs)]

    # -- lifecycle --------------------------------------------------------

    def _spawn(self, worker_id: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, parent_conn),
            name=f"repro-warm-{worker_id}", daemon=True)
        proc.start()
        child_conn.close()
        return _Worker(worker_id, proc, parent_conn)

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead (or killed) worker with a fresh process,
        failing over whatever task it was running."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        if worker.task_id is not None:
            self._fail_task(worker.task_id,
                            f"WorkerDied: exit code {worker.proc.exitcode}")
            worker.task_id = None
        fresh = self._spawn(worker.id)
        worker.proc, worker.conn = fresh.proc, fresh.conn
        self.respawns += 1

    def shutdown(self) -> None:
        """Stop every worker and reclaim any outstanding segments."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        for record in self._tasks.values():
            _shm.reclaim_segment(record["segment"])
        self._tasks.clear()
        self._queue.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- task flow --------------------------------------------------------

    def submit(self, spec: dict[str, Any]) -> int:
        """Enqueue one task; returns its id for :meth:`wait`.

        ``spec`` carries the driver invocation (name/seed/output_dir/
        obs flags/cache/plan/attempt/shm_min_bytes); the pool adds the
        task id and the parent-chosen segment name.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        task_id = self._next_task
        self._next_task += 1
        segment = _shm.segment_name(self._tag, task_id)
        task = dict(spec, task_id=task_id, segment=segment)
        self._tasks[task_id] = {"task": task, "segment": segment,
                                "done": False, "reply": None,
                                "error": None, "worker": None}
        self._queue.append(task_id)
        self._dispatch()
        return task_id

    def _idle_worker(self) -> _Worker | None:
        for worker in self._workers:  # lowest id first
            if worker.task_id is None:
                return worker
        return None

    def _dispatch(self) -> None:
        while self._queue:
            worker = self._idle_worker()
            if worker is None:
                return
            task_id = self._queue.popleft()
            record = self._tasks[task_id]
            try:
                worker.conn.send(record["task"])
            except (BrokenPipeError, OSError):
                self._respawn(worker)  # dead while idle; retry dispatch
                self._queue.appendleft(task_id)
                continue
            worker.task_id = task_id
            record["worker"] = worker

    def _fail_task(self, task_id: int, error: str) -> None:
        record = self._tasks[task_id]
        record["done"] = True
        record["error"] = error
        record["worker"] = None
        _shm.reclaim_segment(record["segment"])

    def _collect(self, worker: _Worker) -> None:
        """Drain one reply (or detect death) on a busy worker."""
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            self._respawn(worker)
            self._dispatch()
            return
        record = self._tasks[reply["task_id"]]
        record["done"] = True
        record["reply"] = reply
        record["worker"] = None
        worker.task_id = None
        worker.served += 1
        self.tasks_completed += 1
        if not reply.get("ok"):
            _shm.reclaim_segment(record["segment"])
            if reply.get("exit"):
                # Injected crash: the worker killed itself right after
                # replying — reap it now so the next dispatch gets a
                # live process.
                worker.proc.join(timeout=5.0)
                self._respawn(worker)
        self._dispatch()

    def _kill_task(self, task_id: int) -> None:
        """Hard-stop a timed-out task: kill its worker (if running) and
        quarantine its segment."""
        record = self._tasks[task_id]
        worker = record["worker"]
        if worker is None:  # still queued — just drop it
            try:
                self._queue.remove(task_id)
            except ValueError:
                pass
        else:
            worker.task_id = None  # _respawn must not double-fail it
            worker.proc.terminate()
            self._respawn(worker)
        record["done"] = True
        record["error"] = "timeout"
        record["worker"] = None
        _shm.reclaim_segment(record["segment"])
        self._dispatch()

    def wait(self, task_id: int,
             timeout_s: float | None = None) -> dict[str, Any]:
        """Block until one task finishes; return its transport header.

        Raises:
            PoolTimeout: the attempt exceeded ``timeout_s`` (its worker
                was killed and respawned, its segment reclaimed).
            PoolTaskError: the worker reported an error or died.
        """
        record = self._tasks[task_id]
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        while not record["done"]:
            busy = [w for w in self._workers if w.task_id is not None]
            if not busy:
                self._dispatch()
                if record["done"]:
                    break
                if not any(w.task_id is not None
                           for w in self._workers):
                    raise RuntimeError(
                        f"task {task_id} is neither running nor "
                        "dispatchable")
                continue
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                self._kill_task(task_id)
                break
            ready = connection.wait([w.conn for w in busy],
                                    timeout=remaining)
            if not ready:
                self._kill_task(task_id)
                break
            for conn in ready:
                for worker in busy:
                    if worker.conn is conn:
                        self._collect(worker)
                        break
        reply = record["reply"]
        error = record["error"]
        if error == "timeout":
            self._tasks.pop(task_id, None)
            raise PoolTimeout(error)
        if error is not None:
            self._tasks.pop(task_id, None)
            raise PoolTaskError(error)
        if not reply.get("ok"):
            self._tasks.pop(task_id, None)
            raise PoolTaskError(reply.get("error", "worker error"))
        # Keep the record until release(): if the caller dies between
        # wait and unpack, shutdown still sweeps the segment.
        return reply["header"]

    def release(self, task_id: int) -> None:
        """Forget a task whose header was consumed (unpacked)."""
        self._tasks.pop(task_id, None)


# -- the persistent process-wide pool ------------------------------------

_POOL: WarmPool | None = None
_ATEXIT_REGISTERED = False


def get_pool(jobs: int) -> WarmPool:
    """The process-wide warm pool, (re)sized to ``jobs`` workers.

    Reused across ``run_parallel`` calls when the size matches — the
    warm path.  A size change (or a shut-down pool) tears the old one
    down and starts fresh.
    """
    global _POOL, _ATEXIT_REGISTERED
    if _POOL is not None and (_POOL.closed or _POOL.jobs != jobs):
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        _POOL = WarmPool(jobs)
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_pool)
            _ATEXIT_REGISTERED = True
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (tests and interpreter exit)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None

"""Process fan-out behind ``fleet --jobs``: one forked child per task.

:class:`Launcher` forks one child per submitted task and keeps at most
``jobs`` children alive.  Each child runs its task, pickles the result
back over a pipe, and exits.  The parent waits on the pipes with
:func:`multiprocessing.connection.wait`:

* a task that raises reports ``"<ExceptionType>: <message>"``;
* a child that dies without replying reports ``"WorkerDied: exit code
  N"``.

Forking (not spawning) is deliberate: a child starts with the parent's
imports loaded, so a task is any callable — it closes over cohort specs
directly, and nothing is re-imported or pickled on the way in.  The
engine starts no threads of its own.  A fresh child per task also means
no RNG state can leak from one task into the next.

:func:`repro.fleet.run_fleet` (``fleet --jobs N``) shards cohorts with
it.  Tasks carry no telemetry: the science a child runs emits none, and
the fleet driver records its spans and gauges in the parent.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from collections import deque
from multiprocessing import connection
from typing import Any, Callable

__all__ = ["Launcher", "TaskFailed", "resolve_jobs"]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one worker per
    CPU; negative values are rejected."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be positive (or 0 for all CPUs)")
    return jobs


class TaskFailed(RuntimeError):
    """One task failed; the message is the recorded error text."""


def _child_main(conn, task: Callable[[], Any]) -> None:
    """Forked child: run one task and send its outcome to the parent."""
    try:
        payload = {"result": task()}
    except Exception as error:
        payload = {"error": f"{type(error).__name__}: {error}"}
    conn.send(payload)
    conn.close()


class Launcher:
    """Run callables in forked children, at most ``jobs`` at a time.

    Tasks start in submission order as slots free up.  Use as a context
    manager: leaving it kills whatever is still running.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("a launcher needs at least one slot")
        self.jobs = jobs
        self._ctx = multiprocessing.get_context("fork")
        self._next = 0
        self._queue: deque[tuple[int, Callable[[], Any]]] = deque()
        # handle -> (process, read end)
        self._running: dict[int, tuple[Any, Any]] = {}
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

    def wait(self, handle: int) -> Any:
        """Block until one task finishes; return its result.

        Raises:
            TaskFailed: the task raised or its child died.
        """
        while handle not in self._done:
            self._start_queued()
            ready = connection.wait(
                [conn for _, conn in self._running.values()])
            for ready_handle, (_, conn) in list(self._running.items()):
                if conn in ready:
                    self._collect(ready_handle, conn)
        payload = self._done.pop(handle)
        if "error" in payload:
            raise TaskFailed(payload["error"])
        return payload["result"]

    def _start_queued(self) -> None:
        while self._queue and len(self._running) < self.jobs:
            handle, task = self._queue.popleft()
            reader, writer = self._ctx.Pipe(duplex=False)
            # Otherwise each child's full collections walk every
            # inherited object and copy each page they touch, once per
            # task (about 5% of a fleet cohort's time).  __exit__
            # hands the objects back to the parent's collector.
            gc.freeze()
            process = self._ctx.Process(target=_child_main,
                                        args=(writer, task), daemon=True)
            process.start()
            writer.close()  # the child's copy is the only writer left
            self._running[handle] = (process, reader)

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
        process, conn = self._running.pop(handle)
        if kill:
            process.kill()
        process.join()
        conn.close()
        self._done[handle] = payload


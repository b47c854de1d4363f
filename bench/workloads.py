"""The benchmark workloads and the child processes they drive.

All load is closed-loop with one client: one child process, or one
query to one server process, at a time.  ``fleet`` runs the only
multi-process command, with ``--jobs 2``.  Every child runs from the
checkout root with ``PYTHONPATH=src``; its wall clock runs from spawn
to reap, and its peak RSS comes from ``wait4``, which covers the
largest process in its tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from bench import stats, sweep
from bench.spec import EXPECTED, PAPER_CSVS, RESULTS, ROOT, SRC

#: A child (or one query) taking longer than this is killed and fails.
CHILD_TIMEOUT_S = 120.0
QUERY_TIMEOUT_S = 30.0

#: A traced sweep server answers at least this many queries.
MIN_TRACED_QUERIES = 50

#: Sessions per cohort in a measured ``fleet`` run (5 default cohorts).
FLEET_SESSIONS = 2000

#: Sessions per cohort in the ``fleet`` warm-up.
FLEET_WARMUP_SESSIONS = 16

#: Worker processes for ``fleet`` (the host's CPU count).
FLEET_JOBS = 2


@dataclass
class Sample:
    """One timed operation: a child process or a query.

    ``scale`` is how much slower than the reference the host ran at
    the time (see ``bench.runner``), measured by the probe that opened
    the sample's ``group``; ``scaled`` is the time in reference-host
    seconds.
    """

    seconds: float
    ok: bool
    scale: float = 1.0
    group: int = 0

    @property
    def scaled(self) -> float:
        return self.seconds / self.scale


@dataclass
class Child:
    """A finished child process."""

    returncode: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str
    reaped_at: float


@dataclass
class TracedPass:
    """One traced execution of a workload's operation.

    ``op_s`` is comparable with an untraced operation's time;
    ``wall_s`` spans the traced process from spawn to reap, which
    happened at ``reaped_at`` (``time.perf_counter``).
    """

    op_s: float
    wall_s: float
    reaped_at: float
    ok: bool
    trace_dir: Path
    importtime: str
    scale: float = 1.0


class WorkloadBroken(RuntimeError):
    """The workload cannot run further operations in this run."""


def child_env(import_profile: bool = False) -> dict[str, str]:
    """The children's environment; ``import_profile`` turns on
    ``-X importtime`` through the environment, which a traced process
    can withhold from the interpreters it starts (``bench.traced``).

    Children cache bytecode, as an installed package does, whatever the
    caller's environment says; the set-up repetitions absorb the first
    compile in a fresh checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPROFILEIMPORTTIME", None)
    if import_profile:
        env["PYTHONPROFILEIMPORTTIME"] = "1"
    return env


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap(proc: subprocess.Popen, timeout_s: float):
    """Wait for ``proc`` with ``wait4``; returns its rusage and the
    ``time.perf_counter`` reading when it was reaped.

    A child still running after ``timeout_s`` has its session killed;
    whatever is left in the session after the child exits is killed
    too, so no process outlives its operation.
    """
    timer = threading.Timer(timeout_s, _kill_session, (proc.pid,))
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
        reaped_at = time.perf_counter()
    except BaseException:
        _kill_session(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_session(proc.pid)
    return rusage, reaped_at


def run_child(args: list[str], log_dir: Path,
              timeout_s: float = CHILD_TIMEOUT_S,
              import_profile: bool = False) -> Child:
    """Run ``python <args>`` from the checkout root to completion."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path = log_dir / "stdout.txt"
    err_path = log_dir / "stderr.txt"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT,
            env=child_env(import_profile),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True)
        rusage, reaped_at = reap(proc, timeout_s)
    return Child(proc.returncode, reaped_at - start,
                 rusage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"), reaped_at)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- output checks -------------------------------------------------------

@cache
def _reference_csv(name: str) -> bytes:
    return (RESULTS / name).read_bytes()


def paper_outputs_ok(out_dir: Path) -> bool:
    """Every paper CSV in ``out_dir`` equals the committed one."""
    for name in PAPER_CSVS:
        path = out_dir / name
        if not path.is_file() or path.read_bytes() != _reference_csv(name):
            return False
    return True


@cache
def expected_fleet() -> dict[str, str]:
    """Fleet seed -> sha256 of ``fleet.csv`` from a serial run."""
    data = json.loads((EXPECTED / "fleet.json").read_text())
    if data["sessions"] != FLEET_SESSIONS:
        raise ValueError("bench/expected/fleet.json was generated for "
                         f"{data['sessions']} sessions, not "
                         f"{FLEET_SESSIONS}")
    return data["sha256"]


def fleet_output_ok(out_dir: Path, seed: int,
                    expected: dict[str, str]) -> bool:
    path = out_dir / "fleet.csv"
    return (path.is_file()
            and hashlib.sha256(path.read_bytes()).hexdigest()
            == expected.get(str(seed)))


@cache
def expected_answers() -> dict[str, str]:
    """Query key -> answer digest, for every query the sweep can draw."""
    data = json.loads((EXPECTED / "design_sweep.json").read_text())
    if data["digits"] != sweep.DIGITS:
        raise ValueError("bench/expected/design_sweep.json uses "
                         f"{data['digits']} digits, not {sweep.DIGITS}")
    return data["answers"]


def answer_ok(query: tuple[int, int], answer: list,
              expected: dict[str, str]) -> bool:
    return sweep.digest(answer) == expected.get(sweep.query_key(query))


# -- workloads -----------------------------------------------------------

class Workload:
    """One workload: repeatable set-up, timed operations, traced passes.

    Args:
        rng: the run's input generator (seeded from ``--seed``).
        work: scratch directory owned by this workload for the run.
    """

    name = ""

    def __init__(self, rng: random.Random, work: Path) -> None:
        self.rng = rng
        self.work = work
        #: Peak RSS [MB] of each process that ran measured operations.
        self.rss_mb: list[float] = []

    def setup(self) -> Sample:
        """One repetition of the set-up; the last one's state is used."""
        raise NotImplementedError

    def op(self) -> Sample:
        raise NotImplementedError

    def traced(self, trace_dir: Path, budget_s: float) -> TracedPass:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever the workload still runs."""

    def probe(self) -> float:
        """Spawn-to-exit seconds of one host probe (``bench.calibrate``)."""
        child = run_child(["-m", "bench.calibrate"], self.work / "log")
        if child.returncode != 0:
            raise WorkloadBroken(f"host probe failed:\n{child.stderr}")
        return child.seconds


class ProcessWorkload(Workload):
    """Operations are cold ``python -m repro ...`` processes."""

    def next_args(self, out_dir: Path) -> list[str]:
        """The ``repro`` argv of the next operation (draws its inputs)."""
        raise NotImplementedError

    def check(self, child: Child, out_dir: Path) -> bool:
        raise NotImplementedError

    def output_dir(self) -> Path:
        return fresh_dir(self.work / "out")

    def run(self, prefix: list[str],
            import_profile: bool = False) -> tuple[Child, bool]:
        """Run the next operation's command behind ``prefix``; returns
        the child and whether its outputs are correct."""
        out_dir = self.output_dir()
        args = self.next_args(out_dir)
        child = run_child([*prefix, *args], self.work / "log",
                          import_profile=import_profile)
        return child, child.returncode == 0 and self.check(child, out_dir)

    def setup(self) -> Sample:
        child, ok = self.run(["-m", "repro"])
        return Sample(child.seconds, ok)

    def op(self) -> Sample:
        child, ok = self.run(["-m", "repro"])
        self.rss_mb.append(child.rss_mb)
        return Sample(child.seconds, ok)

    def traced(self, trace_dir: Path, budget_s: float) -> TracedPass:
        child, ok = self.run(["-m", "bench.traced",
                              str(fresh_dir(trace_dir))],
                             import_profile=True)
        return TracedPass(child.seconds, child.seconds, child.reaped_at, ok,
                          trace_dir, child.stderr)


class Paper(ProcessWorkload):
    """``evaluate``: regenerate all ten paper artifacts cold."""

    name = "paper"

    def next_args(self, out_dir: Path) -> list[str]:
        return ["evaluate", "--seed", str(self.rng.randrange(2 ** 31)),
                "--quiet", "--output-dir", str(out_dir)]

    def check(self, child: Child, out_dir: Path) -> bool:
        return paper_outputs_ok(out_dir)


class PaperCached(ProcessWorkload):
    """``evaluate --cache`` replayed from a store filled in set-up."""

    name = "paper_cached"

    def __init__(self, rng: random.Random, work: Path) -> None:
        super().__init__(rng, work)
        self.seed = rng.randrange(2 ** 31)
        self.store_dir: Path | None = None
        self.fills = 0
        self.filling = False

    def next_args(self, out_dir: Path) -> list[str]:
        return ["evaluate", "--seed", str(self.seed), "--cache",
                "--quiet", "--output-dir", str(out_dir)]

    def output_dir(self) -> Path:
        # Keep the store (``.cache``); drop the artifacts of the last run.
        for path in self.store_dir.glob("*.*"):
            if path.is_file():
                path.unlink()
        return self.store_dir

    def check(self, child: Child, out_dir: Path) -> bool:
        hits = "cache: 0/10" if self.filling else "cache: 10/10"
        return (f"{hits} driver hits" in child.stdout
                and paper_outputs_ok(out_dir))

    def setup(self) -> Sample:
        self.fills += 1
        self.store_dir = fresh_dir(self.work / f"store{self.fills}")
        self.filling = True
        try:
            return super().setup()
        finally:
            self.filling = False


class Fleet(ProcessWorkload):
    """``fleet --jobs 2``: closed-loop cohorts on the warm pool."""

    name = "fleet"

    def __init__(self, rng: random.Random, work: Path) -> None:
        super().__init__(rng, work)
        self.expected = expected_fleet()
        self.seeds = sorted(int(seed) for seed in self.expected)

    def _args(self, seed: int, sessions: int, out_dir: Path) -> list[str]:
        self.seed = seed
        return ["fleet", "--seed", str(seed), "--sessions", str(sessions),
                "--jobs", str(FLEET_JOBS), "--quiet",
                "--output-dir", str(out_dir)]

    def next_args(self, out_dir: Path) -> list[str]:
        return self._args(self.rng.choice(self.seeds), FLEET_SESSIONS,
                          out_dir)

    def check(self, child: Child, out_dir: Path) -> bool:
        return fleet_output_ok(out_dir, self.seed, self.expected)

    def setup(self) -> Sample:
        # Warm-up: a small fleet, checked only for its exit status.
        out_dir = self.output_dir()
        child = run_child(["-m", "repro", *self._args(
            self.rng.choice(self.seeds), FLEET_WARMUP_SESSIONS, out_dir)],
            self.work / "log")
        return Sample(child.seconds, child.returncode == 0)


class _Server:
    """A ``bench.sweep`` server process, answering one query at a time."""

    def __init__(self, server_args: list[str], log_dir: Path,
                 import_profile: bool = False) -> None:
        log_dir.mkdir(parents=True, exist_ok=True)
        self.err_path = log_dir / "server-stderr.txt"
        with self.err_path.open("wb") as err:
            self.start = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "bench.sweep", *server_args],
                cwd=ROOT, env=child_env(import_profile),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err,
                start_new_session=True)
        self.ready_s = None
        if self._readline(CHILD_TIMEOUT_S) == b"ready\n":
            self.ready_s = time.perf_counter() - self.start

    def _readline(self, timeout_s: float) -> bytes:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        return self.proc.stdout.readline() if ready else b""

    def ask(self, query: tuple[int, int]) -> list | None:
        """Send one query; its answer, or None if the server failed."""
        try:
            self.proc.stdin.write(json.dumps(query).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        line = self._readline(QUERY_TIMEOUT_S)
        return json.loads(line) if line else None

    def close(self) -> None:
        """Stop the server; sets ``wall_s`` (spawn to reap),
        ``reaped_at`` and ``rss_mb``."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        rusage, self.reaped_at = reap(self.proc, CHILD_TIMEOUT_S)
        self.proc.stdout.close()
        self.wall_s = self.reaped_at - self.start
        self.rss_mb = rusage.ru_maxrss / 1024.0


class DesignSweep(Workload):
    """Seeded ``explore`` + ``evaluate_ladder`` queries to a warm
    process."""

    name = "design_sweep"

    def __init__(self, rng: random.Random, work: Path) -> None:
        super().__init__(rng, work)
        self.expected = expected_answers()
        self.server: _Server | None = None

    def _start(self, server_args: list[str],
               import_profile: bool = False) -> _Server:
        server = _Server(server_args, self.work / "log", import_profile)
        if server.ready_s is None:
            server.close()
            raise WorkloadBroken("sweep server did not report ready")
        return server

    def setup(self) -> Sample:
        if self.server is not None:
            self.server.close()  # an earlier repetition's idle server
        self.server = self._start([])
        return Sample(self.server.ready_s, True)

    def _ask(self, server: _Server) -> Sample:
        query = sweep.draw_queries(self.rng, 1)[0]
        start = time.perf_counter()
        answer = server.ask(query)
        seconds = time.perf_counter() - start
        if answer is None:
            raise WorkloadBroken(f"no answer to query {query}")
        return Sample(seconds, answer_ok(query, answer, self.expected))

    def op(self) -> Sample:
        if self.server is None:
            raise WorkloadBroken("sweep server is not running")
        return self._ask(self.server)

    def traced(self, trace_dir: Path, budget_s: float) -> TracedPass:
        server = self._start(["--trace", str(fresh_dir(trace_dir))],
                             import_profile=True)
        samples = []
        try:
            start = time.perf_counter()
            while (len(samples) < MIN_TRACED_QUERIES
                   or time.perf_counter() - start < budget_s):
                samples.append(self._ask(server))
        finally:
            server.close()
        return TracedPass(stats.median([s.seconds for s in samples]),
                          server.wall_s, server.reaped_at,
                          all(s.ok for s in samples), trace_dir,
                          server.err_path.read_text(errors="replace"))

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.rss_mb.append(self.server.rss_mb)
            self.server = None


WORKLOADS = {cls.name: cls for cls in (Paper, PaperCached, Fleet,
                                       DesignSweep)}

"""Run one workload: set-up, timed operations, optional traced passes.

Times are reported in reference-host seconds.  Operations run in
groups of about ``GROUP_S`` seconds (several processes, or a few
hundred queries; a ``fleet`` process is a group of its own), and the
set-up repetitions likewise.  Before each group and each traced pass
the run spawns the host probe (:mod:`bench.calibrate`); the times that
follow are divided by ``probe / calibrate.REFERENCE_S``.
``results.json`` keeps the raw times and the probe times next to the
scaled ones.
"""

from __future__ import annotations

import random
import shutil
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from bench import calibrate, layers, stats
from bench.workloads import WORKLOADS, Sample, WorkloadBroken, fresh_dir

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: A run measures at least this many operations, however long they take.
MIN_OPS = 3

#: Operations after one probe run until this many seconds have passed.
GROUP_S = 3.0


def probed(probe: Callable[[], float], action: Callable[[], Any]) -> Any:
    """Run ``action`` right after a host probe; the result gets the
    probe's scale."""
    scale = probe() / calibrate.REFERENCE_S
    result = action()
    result.scale = scale
    return result


def measure(op: Callable[[], Sample], probe: Callable[[], float],
            budget_s: float, ops: list[Sample],
            min_ops: int = MIN_OPS) -> None:
    """Append samples of ``op`` to ``ops`` for about ``budget_s`` (at
    least ``min_ops`` of them) in groups of ``GROUP_S``, each group
    right after a host probe; stop before an operation (or a probe and
    an operation) that would likely end past the budget.

    ``ops`` is the caller's, so when ``op`` or the probe raises
    :class:`WorkloadBroken`, every sample taken before stays in it.
    """
    start = time.perf_counter()

    def room(probe_s: float = 0.0) -> bool:
        if len(ops) < min_ops:
            return True
        typical = stats.median([sample.seconds for sample in ops])
        return time.perf_counter() - start + probe_s + typical <= budget_s

    group, probe_s = 0, 0.0
    while room(probe_s):
        probe_s = probe()
        scale = probe_s / calibrate.REFERENCE_S
        group_end = time.perf_counter() + GROUP_S
        while True:
            sample = op()
            sample.scale, sample.group = scale, group
            ops.append(sample)
            if time.perf_counter() >= group_end or not room():
                break
        group += 1


def throughput(ops: list[Sample]) -> float:
    """Median over probe groups of operations per scaled second."""
    groups: dict[int, list[float]] = {}
    for sample in ops:
        groups.setdefault(sample.group, []).append(sample.scaled)
    return stats.median([len(times) / sum(times)
                         for times in groups.values()])


def end_to_end(setups: list[Sample], ops: list[Sample],
               rss_mb: list[float], scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics of one run (0 where nothing was measured);
    ``scaled`` selects reference-host or raw seconds."""
    def times(samples: list[Sample]) -> list[float]:
        return [s.scaled if scaled else s.seconds for s in samples]

    raw = [Sample(s.seconds, s.ok, group=s.group) for s in ops]
    return {
        "wall_s": stats.median(times(ops)) if ops else 0.0,
        "ops_per_s": throughput(ops if scaled else raw) if ops else 0.0,
        "setup_s": stats.median(times(setups)) if setups else 0.0,
        "peak_rss_mb": stats.median(rss_mb) if rss_mb else 0.0,
    }


def tail(ops: list[Sample]) -> dict[str, float] | None:
    """Scaled operation time at the highest percentile with enough
    samples beyond it, or None."""
    op_s = [sample.scaled for sample in ops]
    pct = stats.tail_percentile(len(op_s))
    if pct is None:
        return None
    return {"percentile": pct, "value_s": stats.percentile(op_s, pct),
            "samples": len(op_s)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict[str, Any]:
    """Measure one workload for ``seconds``; with ``trace``, half the
    time is untraced operations and half is traced passes."""
    rng = random.Random(f"{name}:{seed}")
    workload = WORKLOADS[name](rng, fresh_dir(work / name))
    probes: list[float] = []

    def probe() -> float:
        probes.append(workload.probe())
        return probes[-1]

    setups: list[Sample] = []
    ops: list[Sample] = []
    passes = []
    errors = []
    budget_s = seconds / 2 if trace else seconds
    try:
        measure(workload.setup, probe, 0.0, setups, min_ops=SETUP_REPS)
        measure(workload.op, probe, budget_s, ops)
        if trace:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < budget_s:
                trace_dir = work / name / f"trace{len(passes)}"
                passes.append(probed(probe, lambda: workload.traced(
                    trace_dir, budget_s)))
    except WorkloadBroken as error:
        errors.append(str(error))
    finally:
        workload.close()

    outcomes = [s.ok for s in setups + ops] + [p.ok for p in passes]
    attempted = len(outcomes) + len(errors)
    failed = outcomes.count(False) + len(errors)
    result: dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "correct": failed == 0, "broken": bool(errors),
        "end_to_end": end_to_end(setups, ops, workload.rss_mb),
        "raw_end_to_end": end_to_end(setups, ops, workload.rss_mb,
                                     scaled=False),
        "tail": tail(ops),
        "samples": {"setup_s": [s.seconds for s in setups],
                    "op_s": [s.seconds for s in ops],
                    "op_scale": [s.scale for s in ops],
                    "op_group": [s.group for s in ops],
                    "probe_s": probes,
                    "rss_mb": workload.rss_mb},
        "errors": errors,
    }
    if trace and passes:
        untraced_s = stats.median([s.scaled for s in ops])
        per_pass = [layers.pass_metrics(p.trace_dir, p.importtime,
                                        p.wall_s, p.reaped_at,
                                        p.op_s / p.scale, untraced_s)
                    for p in passes]
        result["per_layer"] = {
            metric: stats.median([m[metric] for m in per_pass])
            for metric in per_pass[0]}
        result["traced_passes"] = len(passes)
    shutil.rmtree(work / name, ignore_errors=True)
    return result

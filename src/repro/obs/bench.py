"""Benchmark history and the perf-trajectory regression gate.

``python -m bench run`` times the jobs a user waits for (paper
regeneration, cached replay, fleet simulation, design queries) and
writes their end-to-end seconds to ``.bench_out/gate_input.json``.  A
single run cannot tell whether *this* commit made a job slower than the
last few, so this module keeps the trajectory: each run appends one line
to ``results/bench_history.jsonl`` — keyed by git SHA and host CPU
count — and :func:`check_regressions` compares the newest run's entries
against a rolling baseline of prior runs on the same CPU count, failing
``obs bench-gate`` when an entry got more than 20 % slower.

The baseline is the *median* of the last ``window`` matching runs, so a
single noisy historical sample cannot poison the gate, and runs on hosts
with a different CPU count never compare against each other — a laptop
run cannot fail CI's gate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.manifest import git_sha
from repro.obs.recorder import percentile
from repro.units import to_ms

__all__ = [
    "DEFAULT_HISTORY_PATH",
    "DEFAULT_THRESHOLD",
    "DEFAULT_WINDOW",
    "append_history",
    "check_regressions",
    "history_record",
    "load_history",
    "render_gate",
]

#: Where the trajectory ledger lives (one JSON object per line).
DEFAULT_HISTORY_PATH = Path("results") / "bench_history.jsonl"

#: An entry more than this much slower than its baseline fails the gate.
DEFAULT_THRESHOLD = 0.20

#: Rolling-baseline width: median of the last N comparable runs.
DEFAULT_WINDOW = 5


def history_record(entries: Iterable[dict[str, Any]],
                   cpus: int,
                   sha: str | None = None) -> dict[str, Any]:
    """One history line for a benchmark run.

    Args:
        entries: the ``gate_input.json`` entry dicts (``name``,
            ``after_s``, ``speedup``).
        cpus: host CPU count; only runs on equal counts compare.
        sha: commit id; defaults to the checkout's HEAD.

    Entries land under ``kernels``, the ledger's original key, so older
    lines still load.
    """
    kernels = {entry["name"]: {"after_s": float(entry["after_s"]),
                               "speedup": round(float(entry["speedup"]),
                                                4)}
               for entry in entries}
    return {
        "sha": sha if sha is not None else (git_sha() or "unknown"),
        "config": {"cpus": int(cpus)},
        "kernels": kernels,
    }


def append_history(record: dict[str, Any],
                   path: Path | str = DEFAULT_HISTORY_PATH) -> Path:
    """Append one run record to the history ledger (creating it)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_history(path: Path | str = DEFAULT_HISTORY_PATH,
                 ) -> list[dict[str, Any]]:
    """All history records, oldest first; missing file is empty history."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: bad history line: "
                                 f"{error}") from None
    return records


def _baseline_s(history: list[dict[str, Any]], kernel: str,
                config: dict[str, Any], window: int) -> float | None:
    """Median ``after_s`` of the last ``window`` same-config samples."""
    samples = [record["kernels"][kernel]["after_s"]
               for record in history
               if record.get("config") == config
               and kernel in record.get("kernels", {})]
    if not samples:
        return None
    return percentile(samples[-window:], 50)


def check_regressions(current: dict[str, Any],
                      history: list[dict[str, Any]],
                      threshold: float = DEFAULT_THRESHOLD,
                      window: int = DEFAULT_WINDOW) -> dict[str, Any]:
    """Compare one run against the rolling baseline of its predecessors.

    Args:
        current: the run's :func:`history_record` (not yet appended, or
            the last appended line — it is excluded from its own
            baseline by identity, not position, so pass the exact
            object loaded from the ledger when re-checking).
        history: prior records (:func:`load_history` order).
        threshold: fractional slowdown that fails (0.20 = 20 %).
        window: rolling-baseline width.

    Returns:
        A JSON-able report: per-entry rows (``current_s``,
        ``baseline_s``, ``ratio``, ``status``) plus ``ok`` — False when
        any entry regressed.  Entries without a comparable baseline
        report ``no-baseline`` and never fail the gate (the first run
        on a new host must pass).
    """
    prior = [record for record in history if record is not current]
    rows = []
    failed = 0
    for kernel in sorted(current.get("kernels", {})):
        info = current["kernels"][kernel]
        current_s = info["after_s"]
        baseline = _baseline_s(prior, kernel, current.get("config"),
                               window)
        if baseline is None or baseline <= 0:
            rows.append({"kernel": kernel, "current_s": current_s,
                         "baseline_s": None, "ratio": None,
                         "status": "no-baseline"})
            continue
        ratio = current_s / baseline
        status = "ok" if ratio <= 1.0 + threshold else "regression"
        if status == "regression":
            failed += 1
        rows.append({"kernel": kernel, "current_s": current_s,
                     "baseline_s": baseline, "ratio": round(ratio, 4),
                     "status": status})
    return {"threshold": threshold, "window": window,
            "config": current.get("config"), "rows": rows,
            "n_regressions": failed, "ok": failed == 0}


def render_gate(report: dict[str, Any]) -> str:
    """Text verdict of :func:`check_regressions`, one line per entry."""
    lines = []
    for row in report["rows"]:
        if row["baseline_s"] is None:
            lines.append(f"  {row['kernel']:>24}: "
                         f"{to_ms(row['current_s']):9.3f} ms "
                         f"(no baseline yet)")
            continue
        lines.append(f"  {row['kernel']:>24}: "
                     f"{to_ms(row['current_s']):9.3f} ms vs "
                     f"{to_ms(row['baseline_s']):9.3f} ms baseline "
                     f"({row['ratio']:.2f}x)  [{row['status']}]")
    verdict = ("PASS" if report["ok"]
               else f"FAIL: {report['n_regressions']} entry(ies) more "
                    f"than {report['threshold']:.0%} slower")
    header = (f"bench gate (window={report['window']}, "
              f"threshold={report['threshold']:.0%}, "
              f"config={json.dumps(report['config'], sort_keys=True)})")
    return "\n".join([header, *lines, verdict])

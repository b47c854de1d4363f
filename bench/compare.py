"""``python -m bench compare A B``: check B's medians against A's.

``A`` and ``B`` are each a ``results.json`` or a directory searched for
them; with several runs per side, each (workload, metric) pair is
compared on the median over that side's runs.  A pair fails when B is
worse than A by more than the metric's bound in BENCHMARK.json, or when
the error rate rose at all.  Runs of different lengths or trace modes
are not comparable; such a pair of sides is refused (exit 2).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from bench import stats
from bench.spec import load_spec, metric_table


def load_runs(path: Path) -> list[dict[str, Any]]:
    """Every run in one results file, or in all under a directory."""
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    if not files:
        raise FileNotFoundError(f"no results.json under {path}")
    return [json.loads(file.read_text()) for file in files]


def medians(runs: list[dict[str, Any]]) -> dict[tuple[str, str], float]:
    """(workload, metric) -> median over runs; ``error_rate`` included."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            pairs = dict(result["end_to_end"],
                         error_rate=result["error_rate"])
            for metric, value in pairs.items():
                values.setdefault((workload, metric), []).append(value)
    return {key: stats.median(vals) for key, vals in values.items()}


def compare(base: dict[tuple[str, str], float],
            new: dict[tuple[str, str], float],
            metrics: dict[str, dict]) -> list[dict[str, Any]]:
    """One verdict row per (workload, metric) present on both sides."""
    rows = []
    for key in sorted(base.keys() & new.keys()):
        workload, metric = key
        a, b = base[key], new[key]
        if metric == "error_rate":
            bound, worse = 0.0, b - a
        elif metric in metrics:
            bound = metrics[metric]["bound"]
            change = (b - a) / a if a else 0.0
            worse = change if metrics[metric]["better"] == "lower" \
                else -change
        else:
            continue
        rows.append({"workload": workload, "metric": metric,
                     "base": a, "new": b,
                     "ratio": b / a if a else None, "bound": bound,
                     "verdict": "regressed" if worse > bound else "ok"})
    return rows


def render(rows: list[dict[str, Any]]) -> str:
    lines = [f"{'workload':<14}{'metric':<14}{'base':>12}{'new':>12}"
             f"{'ratio':>8}{'bound':>7}  verdict"]
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(f"{row['workload']:<14}{row['metric']:<14}"
                     f"{row['base']:>12.5g}{row['new']:>12.5g}"
                     f"{ratio:>8}{row['bound']:>7.2f}  {row['verdict']}")
    return "\n".join(lines)


def settings(runs: list[dict[str, Any]]) -> set[tuple[Any, Any]]:
    """The distinct (seconds, trace) settings the runs were made with."""
    return {(run["seconds"], run["trace"]) for run in runs}


def main(base_path: Path, new_path: Path) -> int:
    metrics = metric_table(load_spec(), "end_to_end")
    base, new = load_runs(base_path), load_runs(new_path)
    mixed = settings(base) | settings(new)
    if len(mixed) > 1:
        print("refused: the runs differ in (seconds, trace): "
              + ", ".join(map(str, sorted(mixed))))
        return 2
    rows = compare(medians(base), medians(new), metrics)
    print(render(rows))
    if not rows:
        print("no (workload, metric) pair in common")
        return 1
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0

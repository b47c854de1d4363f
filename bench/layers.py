"""Per-layer metrics from one traced pass.

Two sources: the ``-X importtime`` lines a traced process writes to
stderr, and the ``spans-<pid>.jsonl`` records :mod:`bench.traced`
writes for the process and its pool workers.  Self times, counts and
inclusive times add up over processes.  ``process.unattributed_s`` is
the traced process's wall time less its import time, its layers' self
time, the tracer's own set-up and its exit (``process.exit_s``: from
the tracer's last write to the reap); it uses the main process only,
since workers run alongside it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from bench.traced import CALL_COUNTS, IMPORT_LAYER, INCLUSIVE_S

#: Layers reported by name; the rest of ``repro`` is ``other``.
LAYERS = ("cli", "core", "accel", "dnn", "link", "thermal", "decoders",
          "fleet", "experiments", "cache", "analysis", "perf", "obs")

#: ``import.<key>_s`` -> module prefixes whose import self time it sums.
IMPORT_GROUPS = {
    "repro": ("repro",),
    "numpy": ("numpy",),
    "scipy": ("scipy",),
    "networkx": ("networkx",),
    "repro_analysis": ("repro.analysis",),
}

#: Modules of the tracer itself, left out of the import totals.
OWN_MODULES = "bench"


def _under(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def import_metrics(importtime: str) -> dict[str, float]:
    """Import totals from ``-X importtime`` output (self times)."""
    selfs: dict[str, float] = {}
    for line in importtime.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        module = fields[2].strip()
        if not _under(module, OWN_MODULES):
            selfs[module] = selfs.get(module, 0.0) + int(fields[0]) / 1e6
    metrics = {"import.wall_s": sum(selfs.values()),
               "import.modules": float(len(selfs))}
    for key, prefixes in IMPORT_GROUPS.items():
        metrics[f"import.{key}_s"] = sum(
            seconds for module, seconds in selfs.items()
            if any(_under(module, prefix) for prefix in prefixes))
    return metrics


def load_records(trace_dir: Path) -> list[dict]:
    records = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        records.extend(json.loads(line)
                       for line in path.read_text().splitlines() if line)
    return records


def span_metrics(records: list[dict]) -> tuple[dict[str, float], dict]:
    """Layer metrics summed over processes, and the main process's
    self time outside imports, tracer set-up time and last write."""
    self_s: dict[str, float] = defaultdict(float)
    totals: dict[str, float] = defaultdict(float)
    main = {"self_s": 0.0, "install_s": 0.0, "flushed_at": None}
    for record in records:
        if record["main"]:
            main["install_s"] += record["install_s"]
            main["flushed_at"] = max(main["flushed_at"] or 0.0,
                                     record["flushed_at"])
        for layer, seconds in record["self_s"].items():
            self_s[layer] += seconds
            if record["main"] and layer != IMPORT_LAYER:
                main["self_s"] += seconds
        for section in ("calls", "inclusive_s", "values"):
            for key, value in record[section].items():
                totals[key] += value
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0)
               for layer in LAYERS}
    metrics["other.self_s"] = sum(
        (seconds for layer, seconds in self_s.items()
         if layer not in LAYERS and layer != IMPORT_LAYER), 0.0)
    for metric in (*CALL_COUNTS, *INCLUSIVE_S):
        metrics[metric] = totals.get(metric, 0.0)
    metrics["fleet.sessions"] = totals.get("fleet.sessions", 0.0)
    metrics["perf.transport_bytes"] = totals.get("perf.transport_bytes", 0.0)
    metrics["cache.hit_ratio"] = _ratio(totals.get("cache.hits", 0.0),
                                        totals.get("cache.gets", 0.0))
    hits = totals.get("accel.schedule_cache.hits", 0.0)
    metrics["accel.schedule_cache_hit_ratio"] = _ratio(
        hits, hits + totals.get("accel.schedule_cache.misses", 0.0))
    return metrics, main


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def pass_metrics(trace_dir: Path, importtime: str, wall_s: float,
                 reaped_at: float, traced_op_s: float,
                 untraced_op_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    metrics = import_metrics(importtime)
    layer_metrics, main = span_metrics(load_records(trace_dir))
    metrics.update(layer_metrics)
    exit_s = (reaped_at - main["flushed_at"]
              if main["flushed_at"] is not None else 0.0)
    metrics["process.wall_s"] = wall_s
    metrics["process.exit_s"] = exit_s
    metrics["process.unattributed_s"] = (
        wall_s - metrics["import.wall_s"] - main["self_s"]
        - main["install_s"] - exit_s)
    metrics["trace.overhead_frac"] = traced_op_s / untraced_op_s - 1.0
    return metrics

"""Command line of the benchmark.

    python -m bench run [--workload NAME]... [--seed N] [--trace 0|1]
                        [--out DIR]
    python -m bench trace [--workload NAME]... [--seed N] [--out DIR]
    python -m bench compare A B

``run`` measures each workload (default: all) for ``run_seconds`` of
BENCHMARK.json and prints every end-to-end metric; ``--trace 1`` (or
``trace``) spends half of that time on traced passes and prints every
per-layer metric too.  Both write ``DIR/results.json`` and
``DIR/gate_input.json`` (the end-to-end seconds in
``python -m repro obs bench-gate --input`` form) and end with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with tracing the per-layer ones).

The run length is fixed by BENCHMARK.json.  ``--seconds S`` is
accepted because the benchmark's command line includes it, and refused
unless ``S`` equals ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Any

from bench import compare
from bench.runner import run_workload
from bench.spec import (DEFAULT_OUT, DEFAULT_SEED, load_spec, metric_table,
                        missing_inputs)
from bench.workloads import WORKLOADS


def summary_line(results: list[dict[str, Any]], spec: dict[str, Any],
                 trace: bool) -> dict[str, Any]:
    """The closing JSON object; metric names get a ``<workload>.``
    prefix when several workloads ran."""
    section = "per_layer" if trace else "end_to_end"
    table = metric_table(spec, section)
    metrics = {}
    for result in results:
        values = result.get(section, {})
        for name, meta in table.items():
            key = name if len(results) == 1 else \
                f"{result['workload']}.{name}"
            metrics[key] = {"value": values.get(name, 0.0),
                            "unit": meta["unit"]}
    return {"correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics}


def gate_input(results: list[dict[str, Any]],
               spec: dict[str, Any]) -> dict[str, Any]:
    """End-to-end seconds as ``obs bench-gate --input`` entries; a
    workload that broke off has no entries."""
    seconds = [metric["name"] for metric in spec["end_to_end"]
               if metric["unit"] == "s"]
    return {"quick": False, "cpus": os.cpu_count() or 1,
            "entries": [{"name": f"e2e.{result['workload']}.{metric}",
                         "after_s": result["end_to_end"][metric],
                         "speedup": 1.0}
                        for result in results if not result["broken"]
                        for metric in seconds]}


def render(result: dict[str, Any], spec: dict[str, Any]) -> str:
    lines = [f"== {result['workload']} (seed {result['seed']}): "
             f"{result['failed']} failed of {result['attempted']} ops, "
             f"error_rate {result['error_rate']:.3g} =="]
    for section in ("end_to_end", "per_layer"):
        for name, meta in metric_table(spec, section).items():
            if name in result.get(section, {}):
                bound = (f"bound {meta['bound']:.0%}" if "bound" in meta
                         else "")
                lines.append(f"  {name:<34}{result[section][name]:>14.6g} "
                             f"{meta['unit']:<6} {meta['better']:<7}"
                             f"{bound}")
    n_ops = len(result["samples"]["op_s"])
    tail = result["tail"]
    lines.append(f"  ops measured: {n_ops}"
                 + (f"; p{tail['percentile']:g} op time "
                    f"{tail['value_s']:.6g} s (not gated)" if tail
                    else "; too few for a tail percentile"))
    lines.extend(f"  error: {error}" for error in result["errors"])
    return "\n".join(lines)


def run(names: list[str], seed: int, seconds: float, trace: bool,
        out: Path) -> int:
    spec = load_spec()
    work = out / "work"
    results = []
    try:
        for name in names:
            result = run_workload(name, seed, seconds, trace, work)
            print(render(result, spec), flush=True)
            results.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps({
        "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "workloads": {result["workload"]: result for result in results},
    }, indent=2) + "\n")
    (out / "gate_input.json").write_text(
        json.dumps(gate_input(results, spec), indent=2) + "\n")
    print(f"results written to {out / 'results.json'}")
    print(json.dumps(summary_line(results, spec, trace)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        cmd = sub.add_parser(command)
        cmd.add_argument("--workload", action="append",
                         choices=sorted(WORKLOADS), dest="workloads")
        cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
        cmd.add_argument("--seconds", type=float, default=None,
                         help="must equal run_seconds in BENCHMARK.json")
        cmd.add_argument("--out", type=Path, default=DEFAULT_OUT)
        if command == "run":
            cmd.add_argument("--trace", type=int, choices=(0, 1),
                             default=0)
    cmp = sub.add_parser("compare")
    cmp.add_argument("base", type=Path)
    cmp.add_argument("new", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    missing = missing_inputs()
    if missing:
        print("bench: this checkout lacks "
              + ", ".join(str(path) for path in missing), file=sys.stderr)
        return 2
    if args.command == "compare":
        return compare.main(args.base, args.new)
    seconds = load_spec()["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"bench: --seconds must be {seconds} (run_seconds in "
              "BENCHMARK.json); the run length is fixed", file=sys.stderr)
        return 2
    trace = args.command == "trace" or bool(args.trace)
    names = args.workloads or list(WORKLOADS)
    return run(names, args.seed, seconds, trace, args.out.resolve())


if __name__ == "__main__":
    raise SystemExit(main())

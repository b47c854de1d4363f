"""Cold-vs-warm cache benchmarks, persisted to ``BENCH_cache.json``.

Times the full ``evaluate --seed 7`` pipeline through the
content-addressed cache (:mod:`repro.cache`): a cold run that computes
and publishes every driver, then a warm run that replays all of them.
The issue's contract — warm >= 5x faster than cold with byte-identical
CSVs — is asserted on the full run; ``REPRO_BENCH_QUICK=1`` (CI) keeps
the same JSON shape but asserts only sanity (warm faster than cold and
all drivers hitting), since shared runners make tight wall-clock ratios
flaky.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

from repro.experiments import run_all

#: Where the cold/warm numbers land (repo root, next to BENCH_perf.json).
BENCH_CACHE_PATH = Path(__file__).resolve().parents[1] / "BENCH_cache.json"

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Contract from the cache issue: warm full evaluation >= 5x cold.
MIN_WARM_SPEEDUP = 5.0


def _entry(name: str, cold_s: float, warm_s: float, **extra) -> dict:
    return {"name": name,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s if warm_s else float("inf"),
            **extra}


def _csv_bytes(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("*.csv"))}


def _bench_run_all(entries: list[dict], tmp_path: Path) -> None:
    output_dir = tmp_path / "cached"
    plain_dir = tmp_path / "plain"
    run_all(output_dir=plain_dir, seed=7)

    start = time.perf_counter()
    cold = run_all(output_dir=output_dir, seed=7, cache=True)
    cold_s = time.perf_counter() - start
    assert all(not r.cache_info["hit"] for r in cold)
    assert _csv_bytes(output_dir) == _csv_bytes(plain_dir)

    start = time.perf_counter()
    warm = run_all(output_dir=output_dir, seed=7, cache=True)
    warm_s = time.perf_counter() - start
    assert all(r.cache_info["hit"] for r in warm)
    assert _csv_bytes(output_dir) == _csv_bytes(plain_dir)

    entries.append(_entry("evaluate_seed7", cold_s, warm_s,
                          drivers=len(warm), artifacts_identical=True))
    assert warm_s < cold_s, (
        f"warm evaluate ({warm_s:.3f}s) not faster than cold "
        f"({cold_s:.3f}s)")
    if not QUICK:
        assert cold_s / warm_s >= MIN_WARM_SPEEDUP, (
            f"warm evaluate only {cold_s / warm_s:.1f}x faster")
    shutil.rmtree(output_dir, ignore_errors=True)
    shutil.rmtree(plain_dir, ignore_errors=True)


def test_bench_cache(tmp_path):
    """Time cold vs warm runs and persist ``BENCH_cache.json``."""
    entries: list[dict] = []
    _bench_run_all(entries, tmp_path)

    for entry in entries:
        assert entry["warm_s"] > 0
    payload = {
        "quick": QUICK,
        "cpus": os.cpu_count() or 1,
        "entries": entries,
    }
    BENCH_CACHE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    from repro.obs.manifest import build_manifest, write_manifest
    manifest = build_manifest(
        "bench_cache",
        extra={"quick": QUICK,
               "speedups": {e["name"]: round(e["speedup"], 2)
                            for e in entries}})
    write_manifest(Path("results") / "bench_cache_manifest.json",
                   manifest)

    lines = [f"{e['name']:>20}: {e['cold_s'] * 1e3:9.2f} ms cold -> "
             f"{e['warm_s'] * 1e3:9.2f} ms warm ({e['speedup']:6.1f}x)"
             for e in entries]
    print("\n" + "\n".join(lines))

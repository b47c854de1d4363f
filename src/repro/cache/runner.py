"""Whole-driver cached execution: ``run_and_save_cached``.

This is the cache's integration point with the experiment engine.  For
each driver it computes the content address of the run — the transitive
source fingerprint of the driver module's import closure, the base and
derived seeds, and the environment (:func:`repro.cache.keys.driver_key`)
— and either replays the stored :class:`ExperimentResult` (including the
byte-exact CSV text captured on the cold run) or executes the driver
and publishes the outcome.

CSV byte-identity is guaranteed by construction: the cold run's CSV file
is read back and stored verbatim in the entry, and a warm hit writes
those exact bytes instead of re-rendering rows through the CSV writer.
"""

from __future__ import annotations

import base64
from pathlib import Path
from types import ModuleType
from typing import Any

from repro.cache.fingerprint import fingerprint
from repro.cache.keys import driver_key
from repro.cache.store import CacheStore
from repro.obs.events import driver_scope, emit as emit_event
from repro.obs.metrics import inc
from repro.obs.trace import span

__all__ = ["CACHE_DIR_NAME", "decode_result", "encode_result",
           "result_from_payload", "result_payload", "run_and_save_cached",
           "store_for"]

#: Cache directory name, created inside the run's output directory.
CACHE_DIR_NAME = ".cache"


def store_for(output_dir: Path | str) -> CacheStore:
    """The cache store shared by runs writing into ``output_dir``."""
    return CacheStore(Path(output_dir) / CACHE_DIR_NAME)


def encode_result(value: Any) -> Any:
    """JSON-able encoding of a driver's rows and summary.

    NumPy arrays round-trip exactly (dtype, shape, raw bytes in
    base64); NumPy scalars become their Python equivalents; tuples
    become lists.
    """
    import numpy as np

    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        return {"__ndarray__": {
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "data": base64.b64encode(array.tobytes()).decode("ascii"),
        }}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [encode_result(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_result(item)
                for key, item in value.items()}
    return value


def decode_result(value: Any) -> Any:
    """Inverse of :func:`encode_result` (lists stay lists)."""
    import numpy as np

    if isinstance(value, dict):
        packed = value.get("__ndarray__")
        if isinstance(packed, dict) and set(packed) == {"dtype", "shape",
                                                        "data"}:
            raw = base64.b64decode(packed["data"])
            array = np.frombuffer(raw, dtype=packed["dtype"])
            return array.reshape(packed["shape"]).copy()
        return {key: decode_result(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_result(item) for item in value]
    return value


def result_payload(result: Any, csv_text: str) -> dict[str, Any]:
    """JSON-able payload of a finished run (result + exact CSV text)."""
    return {
        "name": result.name,
        "title": result.title,
        "rows": encode_result(result.rows),
        "summary": encode_result(result.summary),
        "columns": list(result.columns) if result.columns is not None
        else None,
        "seed": result.seed,
        "derived_seed": result.derived_seed,
        "duration_s": result.duration_s,
        "csv_text": csv_text,
    }


def result_from_payload(payload: dict[str, Any]) -> Any:
    """Rebuild an :class:`ExperimentResult` from a cache payload."""
    from repro.experiments.base import ExperimentResult

    return ExperimentResult(
        name=payload["name"],
        title=payload["title"],
        rows=decode_result(payload["rows"]),
        summary=decode_result(payload["summary"]),
        columns=payload["columns"],
        seed=payload["seed"],
        derived_seed=payload["derived_seed"],
        duration_s=payload["duration_s"],
    )


def run_and_save_cached(module: ModuleType,
                        output_dir: Path | str,
                        seed: int | None = None,
                        store: CacheStore | None = None) -> Any:
    """Run one driver through the cache and save its CSV + manifest.

    On a hit the stored result is replayed and its CSV written
    byte-for-byte; on a miss the driver runs and the outcome is
    published for the next run.

    Args:
        module: experiment driver module (``run``/``render`` contract).
        output_dir: destination for CSV + manifest artifacts.
        seed: base run seed (same meaning as
            :func:`repro.experiments.run_module`).
        store: cache store; defaults to ``<output_dir>/.cache``.

    Returns:
        The :class:`ExperimentResult`, with ``cache_info`` populated.
    """
    from repro.experiments import experiment_name, run_module
    from repro.seeds import current_seed, derive_driver_seed

    if store is None:
        store = store_for(output_dir)
    name = experiment_name(module)
    base_seed = seed if seed is not None else current_seed()
    derived_seed = derive_driver_seed(base_seed, name)
    source_fingerprint = fingerprint(module.__name__)
    key = driver_key(name, source_fingerprint, base_seed, derived_seed)

    with driver_scope(name):
        entry = store.get(key)
        if entry is not None:
            inc("cache.driver.hits_total")
            emit_event("cache", "driver.hit", key=key[:12])
            with span(f"experiment.{name}.cached", key=key[:12]):
                result = result_from_payload(entry["payload"])
            result.cache_info = {"hit": True, "key": key,
                                 "fingerprint": source_fingerprint}
            result.cached_csv_text = entry["payload"]["csv_text"]
            result.save_csv(output_dir)
            return result

        inc("cache.driver.misses_total")
        emit_event("cache", "driver.miss", key=key[:12])
        result = run_module(module, seed=seed)
        result.cache_info = {"hit": False, "key": key,
                             "fingerprint": source_fingerprint}
        csv_path = result.save_csv(output_dir)
        with csv_path.open("r", newline="", encoding="utf-8") as handle:
            csv_text = handle.read()
        store.put(key, result_payload(result, csv_text), label=name)
    return result

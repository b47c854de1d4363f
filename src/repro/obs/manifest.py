"""Run manifests: provenance written alongside every experiment artifact.

A manifest answers "what produced this CSV?": the git commit, interpreter
and NumPy versions, the RNG seed (if one was set), wall-clock duration,
and peak resident memory.  ``ExperimentResult.save_csv`` writes one
``<name>.manifest.json`` next to each ``<name>.csv``.

The module also owns the process-wide *run seed*: ``repro evaluate
--seed N`` calls :func:`set_run_seed`, stochastic code asks
:func:`seeded_rng` for a generator, and every manifest records the seed
it ran under.
"""

from __future__ import annotations

import functools
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

__all__ = ["build_manifest", "current_seed", "environment_info",
           "git_sha", "peak_rss_bytes", "seeded_rng", "set_run_seed",
           "write_manifest"]

#: Manifest schema version (bump when the field set changes).
SCHEMA_VERSION = 1

_run_seed: int | None = None


def set_run_seed(seed: int | None) -> None:
    """Set (or clear) the process-wide RNG seed recorded in manifests."""
    global _run_seed
    _run_seed = seed


def current_seed() -> int | None:
    """The seed set by :func:`set_run_seed`, or None."""
    return _run_seed


def seeded_rng(seed: int | None = None) -> "Any":
    """A NumPy generator honoring the run seed (or an explicit one).

    Returns ``np.random.default_rng(seed)`` when ``seed`` is given — the
    sanctioned constructor for derived substreams
    (:func:`repro.perf.seeds.derive_stream_seed`) — and
    ``np.random.default_rng(current_seed())`` otherwise: reproducible
    when a seed was set via ``--seed``/:func:`set_run_seed`, fresh
    entropy if not.
    """
    import numpy as np
    return np.random.default_rng(seed if seed is not None else _run_seed)


@functools.lru_cache(maxsize=1)
def git_sha() -> str | None:
    """The repository HEAD commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5.0, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, or None if unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return peak if sys.platform == "darwin" else peak * 1024


def environment_info() -> dict[str, Any]:
    """Interpreter / library / platform identity for provenance."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def build_manifest(name: str,
                   seed: int | None = None,
                   duration_s: float | None = None,
                   extra: dict[str, Any] | None = None) -> dict[str, Any]:
    """Assemble one run manifest.

    Args:
        name: artifact id the manifest describes ("fig5", "bench", ...).
        seed: RNG seed the run used; defaults to the process run seed.
        duration_s: wall-clock duration of the run, if measured.
        extra: additional JSON-able fields merged at the top level.
    """
    manifest: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "created_unix_s": time.time(),
        "seed": seed if seed is not None else _run_seed,
        "duration_s": duration_s,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    manifest.update(environment_info())
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: Path | str, manifest: dict[str, Any]) -> Path:
    """Write a manifest dict as JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, default=str,
                               sort_keys=True) + "\n")
    return path

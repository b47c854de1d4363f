"""Run manifests: provenance written alongside every experiment artifact.

A manifest answers "what produced this CSV?": the git commit, interpreter
and NumPy versions, the RNG seed (if one was set), wall-clock duration,
and peak resident memory.  ``ExperimentResult.save_csv`` writes one
``<name>.manifest.json`` next to each ``<name>.csv``.  The seed
recorded is the process run seed (:func:`repro.seeds.current_seed`)
unless the caller names one.
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

from repro.seeds import current_seed

__all__ = ["build_manifest", "environment_info", "git_sha",
           "peak_rss_bytes", "write_manifest"]

#: Manifest schema version (bump when the field set changes).
SCHEMA_VERSION = 1


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
        "seed": seed if seed is not None else current_seed(),
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

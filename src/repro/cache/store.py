"""Persistent content-addressed result store under ``<output>/.cache``.

Entries are JSON files named by their sha256 key, sharded into two-hex
subdirectories (``.cache/ab/ab12....json``).  The store is safe to share
between processes writing into one output directory:

* **atomic publication** — entries are written to a same-directory temp
  file and ``os.replace``d into place, so readers only ever observe a
  missing file or a complete entry, never a partial one;
* **file-lock serialization** — mutating operations (put, clear, gc)
  hold an exclusive ``fcntl`` lock on ``.cache/.lock``; platforms
  without ``fcntl`` fall back to atomic-rename-only semantics, which is
  still lossless (last writer of identical content wins).

Reads are lock-free: a torn or corrupt entry (truncated JSON, garbage, a
key that does not match its filename) deserializes as a miss, increments
the ``cache.corruption`` counter, and is moved into
``.cache/quarantine/`` so a later put can heal the slot while the
damaged bytes stay inspectable.  Temp files orphaned by a killed writer
(``*.tmp-<pid>`` with a dead pid) are swept on the next put.  Every
lookup is recorded as a ``cache.get`` span and counted into the metrics
registry (``cache.hits`` / ``cache.misses``), so cached runs stay
observable end to end.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path
from typing import Any, Iterator

from repro.obs.metrics import inc
from repro.obs.trace import span

__all__ = ["CacheStore", "STORE_SCHEMA_VERSION"]

#: Entry layout version; bump on incompatible entry-shape changes.
STORE_SCHEMA_VERSION = 1

#: Seconds per day, for the gc max-age policy.
_DAY_S = 86400.0

try:  # pragma: no cover - fcntl is present on every POSIX platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


class CacheStore:
    """One on-disk cache rooted at a directory (usually
    ``results/.cache``).

    Args:
        root: cache directory; created lazily on first write.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    # -- paths and locking ------------------------------------------------

    def entry_path(self, key: str) -> Path:
        """Where an entry with this key lives (whether or not it
        exists)."""
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are parked for inspection (outside
        the two-hex shard layout, so stats and gc never count them)."""
        return self.root / "quarantine"

    @contextlib.contextmanager
    def _lock(self) -> Iterator[None]:
        """Exclusive advisory lock over store mutations."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with (self.root / ".lock").open("a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # -- core API ---------------------------------------------------------

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry out of the shard tree (fall back to
        deletion if the move fails) and count the corruption."""
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            with contextlib.suppress(OSError):
                path.unlink()
        inc("cache.corruption")
        inc(f"cache.corruption.{reason}")

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored entry for ``key``, or None on a miss.

        Corrupt entries — unparseable JSON, a non-object document, or a
        stored key that does not match the requested one (bad sha) —
        count as misses, increment ``cache.corruption``, and are
        quarantined so a later put can heal the slot.
        """
        path = self.entry_path(key)
        with span("cache.get", key=key[:12]) as current:
            corrupt_reason = None
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                entry = None
            else:
                try:
                    entry = json.loads(text)
                except ValueError:
                    entry = None
                    corrupt_reason = "unparseable"
                else:
                    if not isinstance(entry, dict):
                        entry = None
                        corrupt_reason = "not_object"
                    elif entry.get("key") != key:
                        entry = None
                        corrupt_reason = "key_mismatch"
            if corrupt_reason is not None:
                self._quarantine(path, corrupt_reason)
            hit = entry is not None
            current.set(hit=hit)
        inc("cache.hits" if hit else "cache.misses")
        return entry

    def put(self, key: str, payload: dict[str, Any], label: str) -> Path:
        """Atomically publish an entry; returns its path.

        Args:
            key: content-address (sha256 hex) of the entry.
            payload: JSON-able result payload.
            label: human-readable producer id (the experiment name).
        """
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            "label": label,
            "created_unix_s": time.time(),
            "payload": payload,
        }
        text = json.dumps(entry, sort_keys=True)
        path = self.entry_path(key)
        with span("cache.put", key=key[:12]):
            with self._lock():
                path.parent.mkdir(parents=True, exist_ok=True)
                self._sweep_dir(path.parent)
                tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
                tmp.write_text(text, encoding="utf-8")
                os.replace(tmp, path)
        inc("cache.puts")
        return path

    @staticmethod
    def _stale_tmp(path: Path) -> bool:
        """True for a ``*.tmp-<pid>`` file whose writer is dead (the
        wreckage of a killed process; a live writer's temp file is
        left alone)."""
        _, _, suffix = path.name.rpartition(".tmp-")
        if not suffix.isdigit():
            return False
        pid = int(suffix)
        if pid == os.getpid():
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:  # pragma: no cover - e.g. EPERM: pid is alive
            return False
        return False

    def _sweep_dir(self, directory: Path) -> int:
        """Remove stale temp files in one shard; returns the count."""
        removed = 0
        for tmp in directory.glob("*.tmp-*"):
            if self._stale_tmp(tmp):
                with contextlib.suppress(OSError):
                    tmp.unlink()
                    removed += 1
        if removed:
            inc("cache.corruption", removed)
            inc("cache.corruption.stale_tmp", removed)
        return removed

    def sweep_stale_tmp(self) -> int:
        """Sweep every shard for temp files left by killed writers.

        Also runs incrementally (per shard) on each put; this method
        is for explicit maintenance (chaos drills, ``cache --gc``).

        Returns:
            The number of stale temp files removed.
        """
        if not self.root.is_dir():
            return 0
        removed = 0
        with self._lock():
            for shard in sorted(self.root.glob("??")):
                if shard.is_dir():
                    removed += self._sweep_dir(shard)
        return removed

    def contains(self, key: str) -> bool:
        """True when an entry file exists for ``key`` (no validation)."""
        return self.entry_path(key).is_file()

    # -- maintenance ------------------------------------------------------

    def _entry_files(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(path for path in self.root.glob("??/*.json")
                      if not path.name.endswith(".lock"))

    def stats(self) -> dict[str, Any]:
        """Entry counts, byte totals, and a per-label breakdown."""
        files = self._entry_files()
        corrupt = 0
        by_label: dict[str, int] = {}
        total_bytes = 0
        oldest: float | None = None
        newest: float | None = None
        for path in files:
            total_bytes += path.stat().st_size
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                corrupt += 1
                continue
            label = str(entry.get("label", "unknown"))
            by_label[label] = by_label.get(label, 0) + 1
            created = entry.get("created_unix_s")
            if isinstance(created, (int, float)):
                oldest = created if oldest is None else min(oldest,
                                                            created)
                newest = created if newest is None else max(newest,
                                                            created)
        return {
            "root": str(self.root),
            "entries": len(files),
            "total_bytes": total_bytes,
            "corrupt": corrupt,
            "by_label": dict(sorted(by_label.items())),
            "oldest_unix_s": oldest,
            "newest_unix_s": newest,
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        with self._lock():
            files = self._entry_files()
            for path in files:
                with contextlib.suppress(OSError):
                    path.unlink()
        return len(files)

    def gc(self, max_age_days: float | None = None,
           max_bytes: int | None = None) -> dict[str, int]:
        """Prune the store by age, then by size.

        Policy (documented in ``docs/PERFORMANCE.md``):

        1. entries older than ``max_age_days`` (by stored creation
           time, falling back to file mtime) are removed;
        2. if the remainder still exceeds ``max_bytes``, oldest entries
           are removed first until the store fits.

        Returns:
            ``{"removed": n, "kept": m, "kept_bytes": b}``.
        """
        removed = 0
        with self._lock():
            aged: list[tuple[float, int, Path]] = []
            now = time.time()
            for path in self._entry_files():
                size = path.stat().st_size
                created = path.stat().st_mtime
                with contextlib.suppress(OSError, ValueError):
                    entry = json.loads(path.read_text(encoding="utf-8"))
                    stamp = entry.get("created_unix_s")
                    if isinstance(stamp, (int, float)):
                        created = float(stamp)
                if (max_age_days is not None
                        and now - created > max_age_days * _DAY_S):
                    with contextlib.suppress(OSError):
                        path.unlink()
                        removed += 1
                        continue
                aged.append((created, size, path))
            aged.sort()
            kept_bytes = sum(size for _, size, _ in aged)
            if max_bytes is not None:
                while aged and kept_bytes > max_bytes:
                    _, size, path = aged.pop(0)
                    with contextlib.suppress(OSError):
                        path.unlink()
                        removed += 1
                        kept_bytes -= size
        inc("cache.gc_removed", removed)
        return {"removed": removed, "kept": len(aged),
                "kept_bytes": kept_bytes}

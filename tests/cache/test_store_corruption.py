"""Cache corruption self-healing: quarantine, counters, stale temps.

Chaos-suite counterpart of ``test_store.py``: every way an entry can be
damaged on disk — truncated JSON from a torn write, garbage bytes, a
stored key that does not match its filename, a temp file orphaned by a
killed writer — must read as a miss, increment ``cache.corruption``,
and leave the slot healable by the next put.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.obs import recorder
from repro.cache.keys import value_digest
from repro.cache.store import CacheStore


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / ".cache")


@pytest.fixture
def metrics():
    recorder.enable()
    try:
        yield recorder.RECORDER
    finally:
        recorder.disable()
        recorder.reset()


def _seed_entry(store: CacheStore, tag: str = "corruption"):
    key = value_digest({"test": tag})
    store.put(key, {"tag": tag}, label="test")
    return key, store.entry_path(key)


def _corruption(registry) -> dict[str, float]:
    counters = registry.snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("cache.corruption")}


class TestCorruptEntries:
    def test_truncated_json_misses_and_quarantines(self, store, metrics):
        key, path = _seed_entry(store)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:len(text) // 2], encoding="utf-8")

        assert store.get(key) is None
        assert not path.exists()
        quarantined = store.quarantine_dir / path.name
        assert quarantined.is_file()  # damaged bytes stay inspectable
        assert quarantined.read_text(
            encoding="utf-8") == text[:len(text) // 2]
        assert _corruption(metrics) == {
            "cache.corruption": 1, "cache.corruption.unparseable": 1}

    def test_garbage_bytes_miss(self, store, metrics):
        key, path = _seed_entry(store)
        path.write_text("{this is not json", encoding="utf-8")
        assert store.get(key) is None
        assert _corruption(metrics)["cache.corruption.unparseable"] == 1

    def test_non_object_document_misses(self, store, metrics):
        key, path = _seed_entry(store)
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert store.get(key) is None
        assert _corruption(metrics)["cache.corruption.not_object"] == 1

    def test_bad_sha_misses(self, store, metrics):
        """An entry whose stored key disagrees with the requested one
        (renamed file, hash collision damage) must not be served."""
        key, path = _seed_entry(store)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["key"] = "0" * 64
        path.write_text(json.dumps(entry, sort_keys=True),
                        encoding="utf-8")
        assert store.get(key) is None
        assert _corruption(metrics)["cache.corruption.key_mismatch"] == 1

    def test_next_put_heals_the_slot(self, store, metrics):
        key, path = _seed_entry(store)
        path.write_text("{torn", encoding="utf-8")
        assert store.get(key) is None
        store.put(key, {"tag": "healed"}, label="test")
        entry = store.get(key)
        assert entry is not None
        assert entry["payload"] == {"tag": "healed"}
        assert _corruption(metrics)["cache.corruption"] == 1

    def test_intact_entries_count_no_corruption(self, store, metrics):
        key, _ = _seed_entry(store)
        assert store.get(key) is not None
        assert _corruption(metrics) == {}


def _dead_pid() -> int:
    """A pid guaranteed dead: a child process that already exited."""
    child = multiprocessing.Process(target=lambda: None)
    child.start()
    child.join()
    return child.pid


class TestStaleTempFiles:
    def test_dead_writers_wreckage_is_swept_on_put(self, store, metrics):
        key, path = _seed_entry(store)
        stale = path.parent / f"{path.name}.tmp-{_dead_pid()}"
        stale.write_text("{half-written", encoding="utf-8")

        # Any put into the same shard sweeps the wreckage first.
        store.put(key, {"tag": "again"}, label="test")

        assert not stale.exists()
        assert store.get(key) is not None
        assert _corruption(metrics)["cache.corruption.stale_tmp"] == 1

    def test_live_writers_temp_file_is_left_alone(self, store, metrics):
        key, path = _seed_entry(store)
        live = path.parent / f"other.json.tmp-{os.getpid()}"
        live.write_text("{in-flight", encoding="utf-8")
        store.put(key, {"tag": "again"}, label="test")
        assert live.exists()
        assert _corruption(metrics) == {}

    def test_explicit_sweep_covers_every_shard(self, store, metrics):
        paths = []
        for tag in ("one", "two", "three"):
            _, path = _seed_entry(store, tag=tag)
            stale = path.parent / f"{path.name}.tmp-{_dead_pid()}"
            stale.write_text("{", encoding="utf-8")
            paths.append(stale)
        removed = store.sweep_stale_tmp()
        assert removed == 3
        assert not any(path.exists() for path in paths)
        assert _corruption(metrics)["cache.corruption.stale_tmp"] == 3

    def test_non_pid_suffix_is_not_swept(self, store):
        _, path = _seed_entry(store)
        odd = path.parent / "entry.json.tmp-not-a-pid"
        odd.write_text("{", encoding="utf-8")
        assert store.sweep_stale_tmp() == 0
        assert odd.exists()

"""Tests for the on-disk cache store (repro.cache.store)."""

from __future__ import annotations

import json

import pytest

from repro.cache.keys import value_digest
from repro.cache.store import STORE_SCHEMA_VERSION, CacheStore


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / ".cache")


def _key(tag: str) -> str:
    return value_digest({"tag": tag})


class TestPutGet:
    def test_roundtrip(self, store):
        key = _key("a")
        store.put(key, {"x": 1.5, "y": [1, 2]}, label="s")
        entry = store.get(key)
        assert entry is not None
        assert entry["schema"] == STORE_SCHEMA_VERSION
        assert "kind" not in entry
        assert entry["label"] == "s"
        assert entry["payload"] == {"x": 1.5, "y": [1, 2]}

    def test_miss_is_none(self, store):
        assert store.get(_key("missing")) is None

    def test_contains(self, store):
        key = _key("b")
        assert not store.contains(key)
        store.put(key, {}, label="d")
        assert store.contains(key)

    def test_sharded_layout(self, store):
        key = _key("c")
        path = store.put(key, {}, label="d")
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.json"

    def test_no_temp_files_left(self, store):
        for tag in ("d", "e", "f"):
            store.put(_key(tag), {"tag": tag}, label="s")
        leftovers = [p for p in store.root.rglob("*")
                     if p.is_file() and ".tmp-" in p.name]
        assert leftovers == []

    def test_overwrite_wins(self, store):
        key = _key("g")
        store.put(key, {"v": 1}, label="s")
        store.put(key, {"v": 2}, label="s")
        assert store.get(key)["payload"] == {"v": 2}

    def test_non_finite_floats_roundtrip(self, store):
        key = _key("inf")
        store.put(key, {"v": float("inf")}, label="s")
        assert store.get(key)["payload"]["v"] == float("inf")

    def test_legacy_kind_field_still_reads(self, store):
        key = _key("legacy")
        path = store.put(key, {"v": 1}, label="fig5")
        entry = json.loads(path.read_text())
        entry["kind"] = "driver"
        path.write_text(json.dumps(entry))
        assert store.get(key)["payload"] == {"v": 1}
        assert store.stats()["by_label"] == {"fig5": 1}


class TestCorruptEntries:
    def test_corrupt_entry_is_miss_and_healed(self, store):
        key = _key("h")
        path = store.put(key, {"v": 1}, label="s")
        path.write_text("{not json")
        assert store.get(key) is None
        assert not path.exists()  # removed so a later put can heal it
        store.put(key, {"v": 2}, label="s")
        assert store.get(key)["payload"] == {"v": 2}


class TestStats:
    def test_empty(self, store):
        stats = store.stats()
        assert stats["entries"] == 0
        assert stats["total_bytes"] == 0

    def test_breakdowns(self, store):
        store.put(_key("i"), {}, label="fig5")
        store.put(_key("j"), {}, label="fig7")
        store.put(_key("k"), {}, label="fig7")
        store.entry_path(_key("k")).write_text("{not json")
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["corrupt"] == 1
        assert stats["by_label"] == {"fig5": 1, "fig7": 1}
        assert stats["total_bytes"] > 0
        assert stats["oldest_unix_s"] <= stats["newest_unix_s"]


class TestClearAndGc:
    def test_clear(self, store):
        for tag in ("l", "m"):
            store.put(_key(tag), {}, label="s")
        assert store.clear() == 2
        assert store.stats()["entries"] == 0
        # Clearing an already-empty store is a no-op.
        assert store.clear() == 0

    def _backdate(self, store, key, days):
        path = store.entry_path(key)
        entry = json.loads(path.read_text())
        entry["created_unix_s"] -= days * 86400.0
        path.write_text(json.dumps(entry))

    def test_gc_by_age(self, store):
        old, new = _key("old"), _key("new")
        store.put(old, {}, label="s")
        store.put(new, {}, label="s")
        self._backdate(store, old, days=30)
        report = store.gc(max_age_days=7)
        assert report["removed"] == 1
        assert report["kept"] == 1
        assert store.contains(new) and not store.contains(old)

    def test_gc_by_size_drops_oldest_first(self, store):
        first, second = _key("n"), _key("o")
        store.put(first, {"pad": "x" * 64}, label="s")
        store.put(second, {"pad": "y" * 64}, label="s")
        self._backdate(store, first, days=1)
        total = store.stats()["total_bytes"]
        report = store.gc(max_bytes=total - 1)
        assert report["removed"] == 1
        assert not store.contains(first) and store.contains(second)
        assert report["kept_bytes"] <= total - 1

    def test_gc_without_limits_keeps_everything(self, store):
        store.put(_key("p"), {}, label="s")
        report = store.gc()
        assert report == {"removed": 0, "kept": 1,
                          "kept_bytes": store.stats()["total_bytes"]}

"""Invalidation semantics: an edit invalidates exactly what it touched.

Two layers of evidence, matching the acceptance criteria:

* **fingerprint/key level** — in a private copy of the source tree,
  editing one driver changes that driver's cache key and no other's;
  editing shared infrastructure (``experiments/base.py``) changes all
  of them.
* **runner level** — with a populated store, a changed fingerprint for
  one driver makes exactly that driver re-run while the others still
  hit.
"""

from __future__ import annotations

import shutil

import pytest

from repro.cache.fingerprint import (
    clear_cached_fingerprints,
    default_root,
    fingerprint,
)
from repro.cache.keys import driver_key
from repro.cache.runner import run_and_save_cached, store_for
from repro.experiments import ALL_EXPERIMENTS, experiment_name
from repro.seeds import derive_driver_seed

DRIVERS = [experiment_name(module) for module in ALL_EXPERIMENTS]


@pytest.fixture
def tmp_tree(tmp_path):
    root = tmp_path / "src"
    shutil.copytree(default_root() / "repro", root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    clear_cached_fingerprints()
    yield root
    clear_cached_fingerprints()


def _driver_keys(root, seed=7):
    return {name: driver_key(
        name, fingerprint(f"repro.experiments.{name}", root=root),
        seed, derive_driver_seed(seed, name)) for name in DRIVERS}


def _append(path):
    path.write_text(path.read_text() + "\n# edited\n")


class TestKeyLevelInvalidation:
    def test_editing_one_driver_changes_only_its_key(self, tmp_tree):
        before = _driver_keys(tmp_tree)
        _append(tmp_tree / "repro" / "experiments" / "fig5.py")
        clear_cached_fingerprints()
        after = _driver_keys(tmp_tree)
        assert after["fig5"] != before["fig5"]
        unchanged = {name for name in DRIVERS
                     if after[name] == before[name]}
        assert unchanged == set(DRIVERS) - {"fig5"}

    def test_editing_shared_base_changes_every_key(self, tmp_tree):
        before = _driver_keys(tmp_tree)
        _append(tmp_tree / "repro" / "experiments" / "base.py")
        clear_cached_fingerprints()
        after = _driver_keys(tmp_tree)
        assert all(after[name] != before[name] for name in DRIVERS)

    def test_editing_the_closed_loop_model_changes_the_frontier_key(
            self, tmp_tree):
        # explore() scores the closed-loop strategy, so the frontier
        # driver's key must follow core/closed_loop.py.
        def frontier_key():
            return driver_key(
                "frontier",
                fingerprint("repro.experiments.frontier", root=tmp_tree),
                7, derive_driver_seed(7, "frontier"))

        before = frontier_key()
        _append(tmp_tree / "repro" / "core" / "closed_loop.py")
        clear_cached_fingerprints()
        assert frontier_key() != before

    def test_seed_is_part_of_the_key(self, tmp_tree):
        assert _driver_keys(tmp_tree, seed=7) != _driver_keys(tmp_tree,
                                                              seed=8)


class TestRunnerLevelInvalidation:
    def test_only_touched_driver_reruns(self, tmp_path, monkeypatch):
        modules = list(ALL_EXPERIMENTS[:3])
        store = store_for(tmp_path)
        for module in modules:
            result = run_and_save_cached(module, tmp_path, seed=7,
                                         store=store)
            assert result.cache_info == {
                "hit": False, "key": result.cache_info["key"],
                "fingerprint": result.cache_info["fingerprint"]}

        # Simulate an edit to the second driver: its source fingerprint
        # changes, every other module's stays put.
        touched = modules[1].__name__
        real_fingerprint = fingerprint

        def edited_fingerprint(module, root=None):
            value = real_fingerprint(module, root=root)
            return "f" * 64 if module == touched else value

        monkeypatch.setattr("repro.cache.runner.fingerprint",
                            edited_fingerprint)
        hits = {}
        for module in modules:
            result = run_and_save_cached(module, tmp_path, seed=7,
                                         store=store)
            hits[experiment_name(module)] = result.cache_info["hit"]
        expected = {experiment_name(m): m.__name__ != touched
                    for m in modules}
        assert hits == expected

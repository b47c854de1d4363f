"""Tests for transitive source fingerprinting (repro.cache.fingerprint).

The fingerprint is the provenance half of every cache key: it must be
deterministic, must cover the full in-package import closure, and must
change exactly when a closure member changes.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.cache.fingerprint import (
    clear_cached_fingerprints,
    default_root,
    fingerprint,
    import_closure,
    module_source_path,
)


@pytest.fixture
def tmp_tree(tmp_path):
    """A private copy of the repro package, safe to edit in place."""
    root = tmp_path / "src"
    shutil.copytree(default_root() / "repro", root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    clear_cached_fingerprints()
    yield root
    clear_cached_fingerprints()


class TestModuleSourcePath:
    def test_package_resolves_to_init(self):
        path = module_source_path("repro.link", default_root())
        assert path is not None and path.name == "__init__.py"

    def test_module_resolves_to_file(self):
        path = module_source_path("repro.link.channel", default_root())
        assert path is not None and path.name == "channel.py"

    def test_missing_module_is_none(self):
        assert module_source_path("repro.nope", default_root()) is None


class TestImportClosure:
    def test_contains_module_and_transitive_imports(self):
        closure = import_closure("repro.link.channel")
        assert "repro.link.channel" in closure
        assert "repro.link.modulation" in closure
        # channel -> modulation -> ber is a transitive dependency.
        assert "repro.link.ber" in closure

    def test_contains_parent_packages(self):
        closure = import_closure("repro.link.channel")
        assert "repro" in closure
        assert "repro.link" in closure

    def test_unknown_module_raises(self):
        with pytest.raises(FileNotFoundError):
            import_closure("repro.does_not_exist")


class TestFingerprint:
    def test_deterministic(self):
        assert (fingerprint("repro.link.channel")
                == fingerprint("repro.link.channel"))

    def test_differs_across_modules(self):
        assert (fingerprint("repro.link.channel")
                != fingerprint("repro.thermal.grid"))

    def test_tmp_tree_matches_real_tree(self, tmp_tree):
        # Byte-identical trees agree, independently of their location.
        assert (fingerprint("repro.link.channel", root=tmp_tree)
                == fingerprint("repro.link.channel"))

    def test_editing_module_changes_own_fingerprint(self, tmp_tree):
        before = fingerprint("repro.link.channel", root=tmp_tree)
        target = tmp_tree / "repro" / "link" / "channel.py"
        target.write_text(target.read_text() + "\n# edited\n")
        clear_cached_fingerprints()
        assert fingerprint("repro.link.channel", root=tmp_tree) != before

    def test_editing_module_leaves_nonimporters_alone(self, tmp_tree):
        untouched = fingerprint("repro.thermal.grid", root=tmp_tree)
        target = tmp_tree / "repro" / "link" / "channel.py"
        target.write_text(target.read_text() + "\n# edited\n")
        clear_cached_fingerprints()
        assert fingerprint("repro.thermal.grid",
                           root=tmp_tree) == untouched

    def test_editing_dependency_propagates(self, tmp_tree):
        before = fingerprint("repro.link.channel", root=tmp_tree)
        dep = tmp_tree / "repro" / "link" / "modulation.py"
        dep.write_text(dep.read_text() + "\n# edited\n")
        clear_cached_fingerprints()
        assert fingerprint("repro.link.channel", root=tmp_tree) != before

    def test_memoized_until_cleared(self, tmp_tree):
        before = fingerprint("repro.link.channel", root=tmp_tree)
        target = tmp_tree / "repro" / "link" / "channel.py"
        target.write_text(target.read_text() + "\n# edited\n")
        # Without clearing, the memo still answers (documented).
        assert fingerprint("repro.link.channel", root=tmp_tree) == before
        clear_cached_fingerprints()
        assert fingerprint("repro.link.channel", root=tmp_tree) != before


class TestDefaultRoot:
    def test_points_at_importable_tree(self):
        root = default_root()
        assert (root / "repro" / "__init__.py").is_file()
        assert isinstance(root, Path)

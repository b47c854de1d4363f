"""Transitive source fingerprints of ``repro`` module closures.

A cache entry is only reusable while the *code* that produced it is
unchanged, so every cache key starts from a fingerprint of the driver's
full in-package import closure: walk the import graph from the module,
restricted to ``repro.*`` modules found under one source root, and hash
the sorted ``(module name, sha256(source))`` pairs.  Editing any module a
driver (transitively) imports changes that driver's fingerprint — and
only the fingerprints of modules that reach the edited file, which is
what makes invalidation *selective* (see
``tests/cache/test_invalidation.py``).  Parent packages are included
shallowly — their sources count, their re-export imports are not
followed — so sibling drivers sharing a package don't invalidate each
other (see :func:`import_closure`).

Imports are discovered by parsing, not importing (:func:`ast.parse` on
the file text), so a source tree copied into a tmp directory can be
fingerprinted without being imported.  Only absolute
``repro.*`` imports are followed — the package style enforced across the
codebase; stdlib and third-party modules are environment concerns and are
keyed separately (:func:`repro.cache.keys.environment_fields`).  Only
*module-level* imports count: function-local imports are the codebase's
deliberate lazy cycle-breakers (e.g. the cache runner reaching back into
``repro.experiments``), and following them would fuse every closure into
one blob and destroy selective invalidation.

Fingerprints are memoized per ``(root, module)`` for the life of the
process: source files do not change under a running interpreter, and the
memo is what makes a warm run's key computation cheap.  Tests that edit
files in place call :func:`clear_cached_fingerprints`.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

__all__ = ["clear_cached_fingerprints", "default_root", "fingerprint",
           "import_closure", "module_imports", "module_source_path"]

#: Top-level package whose internal imports the walker follows.
PACKAGE = "repro"

#: Per-process memo: (root, module) -> fingerprint hex digest.
_FINGERPRINTS: dict[tuple[Path, str], str] = {}

#: Per-process memo: source path -> (sha256 hex, imported module names).
_PARSED: dict[Path, tuple[str, frozenset[str]]] = {}


def clear_cached_fingerprints() -> None:
    """Drop every memoized fingerprint and parsed-file record.

    Needed only when source files change under a running process (the
    tmp-tree invalidation tests do this); normal runs never require it.
    """
    _FINGERPRINTS.clear()
    _PARSED.clear()


def default_root() -> Path:
    """The source root containing the imported ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


def module_source_path(module: str, root: Path) -> Path | None:
    """Source file of a dotted module under ``root``, or None.

    Packages resolve to their ``__init__.py``.
    """
    rel = Path(*module.split("."))
    package_init = root / rel / "__init__.py"
    if package_init.is_file():
        return package_init
    source = root / rel.parent / f"{rel.name}.py"
    return source if source.is_file() else None


def _module_level_nodes(tree: ast.Module):
    """AST nodes outside any function body.

    Descends through module-level ``if``/``try``/class blocks (their
    imports run at import time) but not into function bodies, whose
    imports are deferred and intentionally excluded from closures.
    """
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


def module_imports(tree: ast.Module, root: Path) -> frozenset[str]:
    """In-package modules a parsed module imports at module level.

    ``from repro.pkg import name`` resolves ``name`` to
    ``repro.pkg.name`` when that submodule exists under ``root``;
    otherwise the dependency is ``repro.pkg`` itself.  Function-local
    imports are excluded (see the module docstring).
    """
    found: set[str] = set()
    for node in _module_level_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _in_package(alias.name):
                    found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue  # relative imports are not used in-package
            if not _in_package(node.module):
                continue
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if module_source_path(submodule, root) is not None:
                    found.add(submodule)
                else:
                    found.add(node.module)
    return frozenset(found)


def _in_package(module: str) -> bool:
    return module == PACKAGE or module.startswith(PACKAGE + ".")


def _parse(path: Path, root: Path) -> tuple[str, frozenset[str]]:
    """(source digest, imported modules) of one file, memoized.

    The digest is over the utf-8 text as read (universal newlines), so
    it matches across checkouts that differ only in line endings.
    """
    resolved = path.resolve()
    cached = _PARSED.get(resolved)
    if cached is not None:
        return cached
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    record = (digest, module_imports(tree, root))
    _PARSED[resolved] = record
    return record


def import_closure(module: str, root: Path | None = None,
                   ) -> dict[str, Path]:
    """Transitive in-package import closure of a module.

    Args:
        module: dotted module name (e.g. ``"repro.experiments.fig5"``).
        root: source root to resolve modules under; defaults to the
            imported package's own tree (:func:`default_root`).

    Returns:
        ``{module name: source path}`` for the module and everything it
        transitively imports inside the package.

    Raises:
        FileNotFoundError: when ``module`` has no source file under
            ``root``.
        OSError / SyntaxError: when a closure member cannot be read or
            parsed.
    """
    root = (root or default_root()).resolve()
    start = module_source_path(module, root)
    if start is None:
        raise FileNotFoundError(f"no source for module {module!r} under "
                                f"{root}")
    closure: dict[str, Path] = {}
    pending = [(module, start)]
    while pending:
        name, path = pending.pop()
        if name in closure:
            continue
        closure[name] = path
        _, imports = _parse(path, root)
        for dep in imports:
            dep_path = module_source_path(dep, root)
            if dep_path is not None and dep not in closure:
                pending.append((dep, dep_path))
    # Importing a submodule also executes its parent packages, so their
    # sources join the closure — but *shallowly*: a package __init__'s
    # own imports are not followed from here.  Package inits re-export
    # sibling modules (repro.experiments imports every driver); walking
    # them would couple every driver's fingerprint to every other's and
    # destroy selective invalidation.  Depending on a package
    # *explicitly* (``from repro.thermal import assess``) still walks
    # its __init__ deeply via the loop above, which is where re-exported
    # names actually matter.
    for name in list(closure):
        parts = name.split(".")
        for depth in range(1, len(parts)):
            parent = ".".join(parts[:depth])
            if _in_package(parent) and parent not in closure:
                parent_path = module_source_path(parent, root)
                if parent_path is not None:
                    closure[parent] = parent_path
    return closure


def fingerprint(module: str, root: Path | None = None) -> str:
    """sha256 fingerprint of a module's transitive source closure.

    Two trees agree on a module's fingerprint exactly when every source
    file in its import closure is byte-identical; any edit to any
    closure member changes it.
    """
    root = (root or default_root()).resolve()
    memo_key = (root, module)
    cached = _FINGERPRINTS.get(memo_key)
    if cached is not None:
        return cached
    closure = import_closure(module, root)
    digest = hashlib.sha256()
    for name in sorted(closure):
        source_sha, _ = _parse(closure[name], root)
        digest.update(f"{name}:{source_sha}\n".encode())
    result = digest.hexdigest()
    _FINGERPRINTS[memo_key] = result
    return result

"""Source rules that no behavioural test sees until a run breaks.

Seven per-file ``ast`` scans of ``src/`` (the last one of ``tests/``
too):

* **Threaded randomness.**  A seeded run writes the same bytes every
  time only if every draw flows from the run seed (:mod:`repro.seeds`).
  So ``src/`` imports no stdlib ``random`` and touches no
  ``<alias>.random.X`` other than the ``Generator`` type.  Only the
  modules in ``RNG_FACTORIES`` may call ``default_rng``.  The match is
  on the attribute chain, not on the name ``np``, so an aliased numpy
  import is still caught.
* **Managed resources.**  Every ``open()`` and tracer ``span()`` call is
  a ``with`` item, so a handle is closed and a span ends on every path,
  exceptions included.
* **Bounded retries.**  No ``while True:`` loop has an ``except``
  handler that ``continue``s with no ``break``, ``raise`` or ``return``:
  under a persistent fault it would spin forever.
* **Tested parity oracles.**  A callable ``<k>`` next to
  ``<k>_reference``, and each literal ``PARITY_ORACLES`` entry, names
  callables its module defines, and some ``tests/**/test_*.py`` file
  mentions both names.
* **Thin package roots.**  A subpackage ``__init__.py`` holds its
  docstring and nothing else, so every name has one import path: its
  defining module.  A re-export would also let a module that only the
  root imports look reached from the CLI.
* **Public shared names.**  No module imports a ``_``-prefixed name
  from another one: a helper or memo that two modules share gets a
  public name in its defining module, so its callers are visible there.
* **Used imports, short lines.**  In ``src/`` and ``tests/``, every
  module-level import binds a name the module reads (or lists in
  ``__all__``), and no line is longer than 79 characters; a ``# noqa``
  line is exempt.  These are CI's ruff F401 and E501, so a deletion
  that orphans an import fails here too.

Allowed sites are named in the constants below, never in comments in
the code they allow.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
TESTS = REPO / "tests"

#: The modules that may build a generator (path under ``src/``) -> why.
RNG_FACTORIES = {
    "repro/seeds.py": "seeded_rng honours the run's --seed",
    "repro/fault/injector.py": "one stream per fault domain, derived "
                               "from the plan seed",
}

#: Subpackage roots that may hold code (path under ``src/``) -> why.
ENGINE_ROOTS = {
    "repro/experiments/__init__.py": "the driver engine; every driver's "
                                     "cache fingerprint includes it as "
                                     "the parent package",
}

#: Calls that must be ``with`` items.
MANAGED_CALLS = ("open", "span")


def _parse(root: Path) -> dict[str, ast.Module]:
    """Path under ``root`` -> syntax tree, for every module there."""
    return {path.relative_to(root).as_posix(): ast.parse(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def _ambient_randomness(name: str, tree: ast.Module) -> list[int]:
    """Lines drawing randomness that the run seed does not control."""
    allowed = {"Generator"} | ({"default_rng"} if name in RNG_FACTORIES
                               else set())
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = any(alias.name.rpartition(".")[2] == "random"
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            bad = (module == "random"
                   or any(alias.name == "random" for alias in node.names)
                   or (module.endswith(".random")
                       and any(alias.name not in allowed
                               for alias in node.names)))
        elif isinstance(node, ast.Attribute):
            bad = (isinstance(node.value, ast.Attribute)
                   and node.value.attr == "random"
                   and node.attr not in allowed)
        else:
            continue
        if bad:
            lines.append(node.lineno)
    return sorted(lines)


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _unmanaged_resources(name: str, tree: ast.Module) -> list[int]:
    """Lines opening a file or a span outside a ``with`` item."""
    managed = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith))
               for item in node.items}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _callee(node) in MANAGED_CALLS
                  and id(node) not in managed)


def _loop_handlers(node: ast.AST):
    """``except`` handlers inside ``node``, outside nested loops and
    definitions (a ``continue`` there does not re-enter ``node``)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.For, ast.AsyncFor, ast.While,
                              ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(child, ast.ExceptHandler):
            yield child
        yield from _loop_handlers(child)


def _unbounded_retries(name: str, tree: ast.Module) -> list[int]:
    """Lines of ``while True:`` handlers that retry with no way out."""
    lines = []
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.While)
                and isinstance(loop.test, ast.Constant)
                and loop.test.value is True):
            continue
        for handler in _loop_handlers(loop):
            kinds = {type(node) for node in ast.walk(handler)}
            if (ast.Continue in kinds
                    and not kinds & {ast.Break, ast.Raise, ast.Return}):
                lines.append(handler.lineno)
    return sorted(lines)


def _callables(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _parity_pairs(tree: ast.Module) -> list[tuple[str, str]]:
    """``(kernel, oracle)`` pairs a module declares: by the
    ``_reference`` suffix, or in a literal ``PARITY_ORACLES`` dict."""
    defined = _callables(tree)
    pairs = [(name.removesuffix("_reference"), name)
             for name in sorted(defined) if name.endswith("_reference")
             and name.removesuffix("_reference") in defined]
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Dict)
                and any(isinstance(target, ast.Name)
                        and target.id == "PARITY_ORACLES"
                        for target in stmt.targets)):
            pairs += [(key.value, value.value)
                      for key, value in zip(stmt.value.keys,
                                            stmt.value.values)
                      if isinstance(key, ast.Constant)
                      and isinstance(value, ast.Constant)]
    return pairs


def _broken_parity_pairs(tree: ast.Module,
                         test_texts: list[str]) -> list[str]:
    """Pairs naming a callable the module lacks, or that no test text
    mentions both sides of."""
    defined = _callables(tree)
    broken = []
    for kernel, oracle in _parity_pairs(tree):
        missing = [name for name in (kernel, oracle) if name not in defined]
        if missing:
            broken.append(f"{kernel}/{oracle}: no callable {missing[0]}")
        elif not any(all(re.search(rf"\b{re.escape(name)}\b", text)
                             for name in (kernel, oracle))
                         for text in test_texts):
            broken.append(f"{kernel}/{oracle}: no test names both")
    return broken


def _root_code(name: str, tree: ast.Module) -> list[int]:
    """Lines of a subpackage root other than its docstring."""
    if (not name.endswith("/__init__.py") or name == "repro/__init__.py"
            or name in ENGINE_ROOTS):
        return []
    body = tree.body
    if not (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        return [body[0].lineno if body else 1]
    return [stmt.lineno for stmt in body[1:]]


def _private_imports(name: str, tree: ast.Module) -> list[int]:
    """Lines naming a ``_``-prefixed import from another module."""
    return sorted({alias.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.name.startswith("_")})


#: Longest line ruff allows (``line-length`` in pyproject.toml).
MAX_LINE = 79


def _bound_names(stmt: ast.stmt) -> list[tuple[int, str]]:
    """(line, name) of each name an import statement binds; none for
    ``__future__`` and star imports."""
    if isinstance(stmt, ast.Import):
        return [(alias.lineno, alias.asname or alias.name.partition(".")[0])
                for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [(alias.lineno, alias.asname or alias.name)
                for alias in stmt.names if alias.name != "*"]
    return []


def _annotations(tree: ast.Module):
    """Every annotation expression in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield from (arg.annotation for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]) if arg and arg.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.AST) -> set[str]:
    """Names a module reads, string annotations included."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _read_names(ast.parse(node.value, mode="eval"))
    return read


def _lint_errors(text: str) -> list[int]:
    """Lines of unused module-level imports and of over-long lines."""
    tree = ast.parse(text)
    lines = text.splitlines()
    read = _read_names(tree)
    read |= {node.value for stmt in tree.body
             if isinstance(stmt, ast.Assign)
             and any(isinstance(target, ast.Name)
                     and target.id == "__all__" for target in stmt.targets)
             for node in ast.walk(stmt.value)
             if isinstance(node, ast.Constant)}
    unused = {line for stmt in tree.body
              for line, name in _bound_names(stmt) if name not in read}
    long = {number for number, line in enumerate(lines, start=1)
            if len(line) > MAX_LINE}
    return sorted(line for line in unused | long
                  if "# noqa" not in lines[line - 1])


def _test_texts(tests: Path) -> list[str]:
    """Every test module except this one, whose toy sources would
    otherwise cover their own pairs."""
    return [path.read_text() for path in sorted(tests.rglob("test_*.py"))
            if path.resolve() != Path(__file__).resolve()]


def _scan(check) -> list[str]:
    return [f"src/{name}:{line}" for name, tree in _parse(SRC).items()
            for line in check(name, tree)]


def test_randomness_is_threaded_from_the_run_seed():
    assert _scan(_ambient_randomness) == [], (
        "take a numpy.random.Generator parameter instead")


def test_every_rng_factory_builds_a_generator():
    trees = _parse(SRC)
    idle = [name for name in RNG_FACTORIES
            if "default_rng" not in {node.attr
                                     for node in ast.walk(trees[name])
                                     if isinstance(node, ast.Attribute)}]
    assert idle == [], "no longer builds a generator: drop it"


def test_files_and_spans_are_with_items():
    assert _scan(_unmanaged_resources) == [], (
        "open files and spans in a with statement")


def test_retry_loops_are_bounded():
    assert _scan(_unbounded_retries) == [], (
        "bound the loop or give the handler a break/raise/return")


def test_parity_oracles_are_tested():
    texts = _test_texts(TESTS)
    broken = {name: found for name, tree in _parse(SRC).items()
              if (found := _broken_parity_pairs(tree, texts))}
    assert broken == {}


def test_package_roots_are_docstrings():
    assert _scan(_root_code) == [], (
        "import the name from its defining module instead")


def test_shared_names_are_public():
    assert _scan(_private_imports) == [], (
        "give the shared name a public name in its defining module")


def test_imports_are_used_and_lines_fit():
    hits = [f"{root.name}/{path.relative_to(root).as_posix()}:{line}"
            for root in (SRC, TESTS) for path in sorted(root.rglob("*.py"))
            for line in _lint_errors(path.read_text())]
    assert hits == [], "drop the unused import or wrap the line"


def test_randomness_rule_on_toy_sources():
    planted = ast.parse(
        "import random\n"
        "import time\n"
        "import numpy as _np\n"
        "from numpy.random import default_rng\n"
        "def run(rng: _np.random.Generator):\n"
        "    _np.random.seed(0)\n"
        "    return _np.random.default_rng(time.time_ns())\n")
    assert _ambient_randomness("repro/experiments/fault_sweep.py",
                               planted) == [1, 4, 6, 7]
    factory = ast.parse(
        "import numpy as np\n"
        "def seeded_rng(seed) -> np.random.Generator:\n"
        "    return np.random.default_rng(seed)\n")
    assert _ambient_randomness("repro/seeds.py", factory) == []
    assert _ambient_randomness("repro/core/x.py", factory) == [3]


def test_resource_rule_on_toy_sources():
    planted = ast.parse(
        "from repro.obs.recorder import span\n"
        "def put(path, blob):\n"
        "    handle = open(path, 'wb')\n"
        "    handle.write(blob)\n"
        "    span('fig5.sweep')\n"
        "    with open(path) as a, path.open() as b, span('ok'):\n"
        "        return a.read() + b.read()\n")
    assert _unmanaged_resources("repro/cache/store.py", planted) == [3, 5]


def test_retry_rule_on_toy_sources():
    planted = ast.parse(
        "def fetch(link):\n"
        "    while True:\n"
        "        try:\n"
        "            return link.read()\n"
        "        except OSError:\n"
        "            continue\n")
    assert _unbounded_retries("repro/link/x.py", planted) == [5]
    bounded = ast.parse(
        "def fetch(link, tries):\n"
        "    while True:\n"
        "        try:\n"
        "            return link.read()\n"
        "        except OSError:\n"
        "            tries -= 1\n"
        "            if tries:\n"
        "                continue\n"
        "            raise\n"
        "        for block in link.blocks():\n"
        "            try:\n"
        "                block.check()\n"
        "            except ValueError:\n"
        "                continue\n")
    assert _unbounded_retries("repro/link/x.py", bounded) == []


def test_parity_rule_on_toy_sources():
    planted = ast.parse(
        "def _x(v):\n    return v\n"
        "def _x_reference(v):\n    return v\n"
        "def common_average_reference(v):\n    return v\n"
        "def rice_encode(v):\n    return v\n"
        "PARITY_ORACLES = {'rice_encode_packed': 'rice_encode'}\n")
    assert _parity_pairs(planted) == [
        ("_x", "_x_reference"), ("rice_encode_packed", "rice_encode")]
    assert _broken_parity_pairs(planted, ["from m import _x"]) == [
        "_x/_x_reference: no test names both",
        "rice_encode_packed/rice_encode: no callable rice_encode_packed"]
    assert _broken_parity_pairs(
        ast.parse("def _x(v):\n    return v\n"
                  "def _x_reference(v):\n    return v\n"),
        ["assert _x(1) == _x_reference(1)"]) == []


def test_root_rule_on_toy_sources():
    planted = ast.parse(
        '"""Package docs."""\n'
        "from repro.core.socs import TABLE1\n"
        "__all__ = ['TABLE1']\n")
    assert _root_code("repro/core/__init__.py", planted) == [2, 3]
    assert _root_code("repro/core/__init__.py",
                      ast.parse("import os\n")) == [1]
    assert _root_code("repro/core/__init__.py", ast.parse("")) == [1]
    assert _root_code("repro/core/socs.py", planted) == []
    assert _root_code("repro/__init__.py", planted) == []
    assert _root_code("repro/experiments/__init__.py", planted) == []
    assert _root_code("repro/core/__init__.py",
                      ast.parse('"""Only docs."""\n')) == []


def test_private_import_rule_on_toy_sources():
    planted = ast.parse(
        "from __future__ import annotations\n"
        "from repro.core.comp_centric import Workload, _PROFILES\n"
        "from repro.core import explorer\n"
        "from repro.link.ber import (\n"
        "    required_ebn0,\n"
        "    _solve_ebn0,\n"
        ")\n"
        "def limits(soc):\n"
        "    from repro.core.frontier import _DENSE_LIMIT\n"
        "    return explorer.explore(soc), _DENSE_LIMIT\n")
    assert _private_imports("repro/core/x.py", planted) == [2, 6, 9]
    assert _private_imports("repro/core/x.py", ast.parse(
        "from repro.core.comp_centric import workload_profile\n"
        "def _local():\n    return workload_profile\n")) == []


def test_lint_rule_on_toy_sources():
    planted = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import ceil, floor\n"
        "from repro.units import mw  # noqa: F401\n"
        "from repro.units import cm2\n"
        "__all__ = ['cm2']\n"
        "from typing import Any\n"
        "def f(x: np.ndarray) -> 'Any':\n"
        "    return ceil(x)  " + "#" * 70 + "\n")
    assert _lint_errors(planted) == [2, 4, 10]
    assert _lint_errors("import os\nprint(os.sep)\n") == []

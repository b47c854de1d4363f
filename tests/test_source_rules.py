"""Source rules that no behavioural test sees until a run breaks.

Four per-file ``ast`` scans of ``src/``:

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
        "from repro.obs.trace import span\n"
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

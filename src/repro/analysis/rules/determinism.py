"""Rule ``determinism``: RNGs are threaded, never ambient.

A seeded run writes byte-identical CSVs every time, and a sharded
``fleet --jobs N`` run the same bytes as a serial one, because every
random draw flows from a ``numpy.random.Generator`` derived per driver
or stream from the run seed (:mod:`repro.seeds`).  Ambient randomness
breaks that silently, so this rule forbids:

* legacy global-state NumPy randomness (``np.random.seed``,
  ``np.random.rand``, ``np.random.RandomState``, ...);
* the stdlib :mod:`random` module (global Mersenne state);
* time-derived seeds (``default_rng(time.time())``,
  ``seed=time.time_ns()``);
* constructing ``np.random.default_rng`` inside library code — the only
  sanctioned construction site is :func:`repro.obs.manifest.seeded_rng`,
  which honors the CLI ``--seed``.  Everywhere else, generators are
  *parameters*.

Tests (``test_*.py`` / ``conftest.py``) may construct pinned generators
directly; the legacy-API and stdlib-``random`` checks still apply there.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ParsedFile, Rule, register_rule
from repro.analysis.graph.project import Project

__all__ = ["DeterminismRule", "LEGACY_NUMPY_RANDOM"]

#: Legacy ``numpy.random`` globals (the pre-Generator API surface).
LEGACY_NUMPY_RANDOM = frozenset({
    "seed", "rand", "randn", "randint", "random", "ranf",
    "random_sample", "sample", "random_integers", "choice", "shuffle",
    "permutation", "uniform", "normal", "standard_normal", "poisson",
    "binomial", "exponential", "beta", "gamma", "lognormal", "laplace",
    "RandomState", "get_state", "set_state",
})

#: Call targets whose result is wall-clock time.
_TIME_CALLS = {("time", "time"), ("time", "time_ns"),
               ("time", "monotonic"), ("time", "perf_counter"),
               ("datetime", "now"), ("datetime", "utcnow")}


def _dotted(node: ast.expr) -> tuple[str, ...]:
    """('np', 'random', 'seed') for nested attribute access, else ()."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _is_time_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    return len(dotted) >= 2 and dotted[-2:] in _TIME_CALLS


def _contains_time_call(node: ast.AST) -> ast.Call | None:
    for child in ast.walk(node):
        if _is_time_call(child):
            return child
    return None


def _is_test_file(parsed: ParsedFile) -> bool:
    name = parsed.path.name
    return name.startswith("test_") or name == "conftest.py"


def _is_sanctioned_rng_factory(parsed: ParsedFile) -> bool:
    """obs/manifest.py is the one library construction site."""
    parts = parsed.path.parts
    return len(parts) >= 2 and parts[-2:] == ("obs", "manifest.py")


@register_rule
class DeterminismRule(Rule):
    """Forbid ambient randomness; RNGs must be injected Generators."""

    rule_id = "determinism"
    description = ("legacy np.random globals, stdlib random, time-derived "
                   "seeds, or internal default_rng() construction")

    def check(self, project: Project) -> Iterator[Finding]:
        for parsed in project:
            yield from self._check_module(parsed)

    def _check_module(self, parsed: ParsedFile) -> Iterator[Finding]:
        allow_rng_construction = (_is_test_file(parsed)
                                  or _is_sanctioned_rng_factory(parsed))
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield from self._emit(
                            parsed, node,
                            "stdlib 'random' uses hidden global state; "
                            "thread a numpy.random.Generator instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield from self._emit(
                        parsed, node,
                        "stdlib 'random' uses hidden global state; "
                        "thread a numpy.random.Generator instead")
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if (len(dotted) >= 3 and dotted[-3] in ("np", "numpy")
                        and dotted[-2] == "random"
                        and dotted[-1] in LEGACY_NUMPY_RANDOM):
                    yield from self._emit(
                        parsed, node,
                        f"legacy global-state API "
                        f"{'.'.join(dotted[-3:])}; draw from an injected "
                        "numpy.random.Generator")
            elif isinstance(node, ast.Call):
                yield from self._check_call(parsed, node,
                                            allow_rng_construction)
            elif isinstance(node, ast.Assign):
                yield from self._check_seed_assign(parsed, node)

    def _check_call(self, parsed: ParsedFile, node: ast.Call,
                    allow_rng_construction: bool) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        is_rng_factory = bool(dotted) and dotted[-1] in (
            "default_rng", "RandomState")
        if is_rng_factory and not allow_rng_construction:
            yield from self._emit(
                parsed, node,
                f"internal {dotted[-1]}() construction; accept a "
                "numpy.random.Generator parameter (the sanctioned "
                "factory is repro.obs.manifest.seeded_rng)")
        if is_rng_factory:
            for arg in list(node.args) + [k.value for k in node.keywords]:
                clock = _contains_time_call(arg)
                if clock is not None:
                    yield from self._emit(
                        parsed, clock,
                        "time-derived RNG seed defeats reproducible "
                        "runs; derive seeds from the run seed "
                        "(repro.seeds)")
        for keyword in node.keywords:
            if keyword.arg and "seed" in keyword.arg.lower():
                clock = _contains_time_call(keyword.value)
                if clock is not None:
                    yield from self._emit(
                        parsed, clock,
                        f"time-derived value for {keyword.arg!r}; derive "
                        "seeds from the run seed (repro.seeds)")

    def _check_seed_assign(self, parsed: ParsedFile,
                           node: ast.Assign) -> Iterator[Finding]:
        names = [t.id for t in node.targets
                 if isinstance(t, ast.Name) and "seed" in t.id.lower()]
        if not names:
            return
        clock = _contains_time_call(node.value)
        if clock is not None:
            yield from self._emit(
                parsed, clock,
                f"time-derived value for {names[0]!r}; derive seeds "
                "from the run seed (repro.seeds)")

    def _emit(self, parsed: ParsedFile, node: ast.AST,
              message: str) -> Iterator[Finding]:
        found = self.finding(parsed, node, message)
        if found is not None:
            yield found

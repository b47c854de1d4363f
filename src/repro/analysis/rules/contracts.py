"""Rule ``experiment-contract``: registered drivers declare their schema.

``repro.experiments`` registers every figure/table driver in
``ALL_EXPERIMENTS`` / ``EXTENSION_EXPERIMENTS``; the CLI and the
driver engine (:func:`repro.experiments.run_all`) discover work from
those tuples.  A registered driver therefore must honor the contract
the engine assumes:

* ``run()`` and ``render(result)`` exist at module level;
* the CSV schema is declared as a non-empty module-level ``COLUMNS``
  list/tuple of strings (the explicit column order ``save_csv`` writes);
* ``run()`` builds an :class:`repro.experiments.base.ExperimentResult`
  whose ``name=`` literal matches the module name — that name keys the
  ``<name>.csv`` + ``<name>.manifest.json`` pair, so a mismatch silently
  orphans the manifest — and which is constructed with
  ``columns=COLUMNS`` so the declared schema is what gets written.

The rule finds the registry by path (``repro/experiments/__init__.py``
within the analyzed set), so the fixture corpus can mirror the layout.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ParsedFile, Rule, register_rule
from repro.analysis.graph.project import Project

__all__ = ["ExperimentContractRule", "REGISTRY_TUPLES"]

#: Module-level tuples listing registered driver modules.
REGISTRY_TUPLES = ("ALL_EXPERIMENTS", "EXTENSION_EXPERIMENTS")

_REGISTRY_SUFFIX = ("repro", "experiments", "__init__.py")


def _registered_drivers(parsed: ParsedFile) -> list[tuple[str, ast.AST]]:
    """Driver module names listed in the registry tuples."""
    drivers: list[tuple[str, ast.AST]] = []
    for node in parsed.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if not any(name in REGISTRY_TUPLES for name in names):
            continue
        value = node.value
        # Tolerate `TUPLE_A + (x,)`-style concatenations by walking all
        # Name elements of any tuple/list display in the expression.
        for sub in ast.walk(value):
            if isinstance(sub, (ast.Tuple, ast.List)):
                for element in sub.elts:
                    if isinstance(element, ast.Name):
                        drivers.append((element.id, element))
    return drivers


def _module_contract(parsed: ParsedFile, module_name: str) -> list[str]:
    """Contract violations of one driver module (empty when clean)."""
    problems: list[str] = []
    top = parsed.tree.body
    defs = {n.name for n in top
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for required in ("run", "render"):
        if required not in defs:
            problems.append(f"missing module-level def {required}()")

    columns_ok = False
    for node in top:
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and t.id == "COLUMNS"
                   for t in node.targets):
            continue
        value = node.value
        if (isinstance(value, (ast.List, ast.Tuple)) and value.elts
                and all(isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                        for e in value.elts)):
            columns_ok = True
    if not columns_ok:
        problems.append("missing non-empty COLUMNS list of column names "
                        "(the declared CSV schema)")

    result_calls = [
        node for node in ast.walk(parsed.tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ExperimentResult"]
    if not result_calls:
        problems.append("never constructs ExperimentResult (no CSV or "
                        "manifest will be emitted)")
        return problems
    names = set()
    passes_columns = False
    for call in result_calls:
        for keyword in call.keywords:
            if keyword.arg == "name" and isinstance(
                    keyword.value, ast.Constant):
                names.add(keyword.value.value)
            if keyword.arg == "columns":
                passes_columns = True
    if module_name not in names:
        problems.append(
            f"ExperimentResult name= must be {module_name!r} (it keys "
            f"the CSV/manifest pair); found {sorted(map(str, names))}")
    if not passes_columns:
        problems.append("ExperimentResult(...) must pass "
                        "columns=COLUMNS so the declared schema is the "
                        "written one")
    return problems


@register_rule
class ExperimentContractRule(Rule):
    """Registered experiment drivers must honor the engine contract."""

    rule_id = "experiment-contract"
    description = ("registered driver missing run/render, a declared "
                   "COLUMNS schema, or a manifest-keyed "
                   "ExperimentResult")

    def check(self, project: Project) -> Iterator[Finding]:
        by_path = {parsed.path.resolve(): parsed for parsed in project}
        registries = [parsed for parsed in project
                      if parsed.path.parts[-3:] == _REGISTRY_SUFFIX]
        for registry in registries:
            package_dir = registry.path.resolve().parent
            for module_name, node in _registered_drivers(registry):
                driver_path = package_dir / f"{module_name}.py"
                driver = by_path.get(driver_path)
                if driver is None:
                    found = self.finding(
                        registry, node,
                        f"registered driver {module_name!r} has no "
                        f"module {module_name}.py in the analyzed tree")
                    if found is not None:
                        yield found
                    continue
                for problem in _module_contract(driver, module_name):
                    found = self.finding(driver, None, problem,
                                         line=1, col=0)
                    if found is not None:
                        yield found

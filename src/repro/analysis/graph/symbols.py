"""Cross-module symbol table for the whole-program analyzer.

One :class:`ModuleSymbols` per analyzed file records what the module
*defines* (top-level functions, classes with their methods, module-level
assignments) and what it *imports* (local alias -> dotted target).  The
table is purely syntactic — nothing is executed — and resolution is
name-based: ``repro.perf.parallel`` resolves to the analyzed file whose
path ends in ``repro/perf/parallel.py``, and a plain ``import helper`` inside a
fixture directory resolves to the sibling ``helper.py``.  Unresolvable
imports (numpy, stdlib) stay as dotted strings so rules can still match
on them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.engine import ParsedFile

__all__ = ["ModuleSymbols", "SymbolTable", "module_name_for"]


def module_name_for(path: Path) -> str:
    """Dotted module name inferred from a file path.

    Files under a ``repro`` package directory get their real dotted name
    (``.../src/repro/perf/parallel.py`` -> ``repro.perf.parallel``);
    anything else (tests, corpus fixtures) is addressed by its stem,
    which is how sibling fixtures import each other.
    """
    parts = list(path.parts)
    stem = path.stem
    prefix = parts[:-1]
    if "repro" in prefix:
        anchor = len(prefix) - 1 - prefix[::-1].index("repro")
        dotted = list(parts[anchor:-1])
        if stem != "__init__":
            dotted.append(stem)
        return ".".join(dotted) if dotted else stem
    return stem


@dataclass
class ModuleSymbols:
    """Everything one module defines and imports, by name."""

    module: str
    parsed: ParsedFile
    #: top-level and method callables: ``"f"`` / ``"Cls.m"`` -> def node.
    functions: dict[str, ast.AST] = field(default_factory=dict)
    #: top-level classes by name.
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    #: local alias -> dotted import target (``np`` -> ``numpy``,
    #: ``span`` -> ``repro.obs.trace.span``).
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level assigned names -> their (last) value node.
    module_globals: dict[str, ast.expr] = field(default_factory=dict)
    #: aliases bound by ``import x`` (the alias names a module object).
    module_aliases: set[str] = field(default_factory=set)

    def expand(self, dotted: tuple[str, ...]) -> str:
        """Canonical dotted form of a local attribute chain.

        Substitutes the import target for the leading name, so
        ``("shared_memory", "SharedMemory")`` under ``from
        multiprocessing import shared_memory`` expands to
        ``"multiprocessing.shared_memory.SharedMemory"`` regardless of
        import style.  Unimported leading names pass through unchanged.
        """
        if not dotted:
            return ""
        head = self.imports.get(dotted[0], dotted[0])
        return ".".join((head, *dotted[1:]))

    @classmethod
    def build(cls, parsed: ParsedFile) -> "ModuleSymbols":
        symbols = cls(module=module_name_for(parsed.path), parsed=parsed)
        for node in parsed.tree.body:
            symbols._index_top(node)
        return symbols

    def _index_top(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            self.classes[node.name] = node
            for member in node.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    self.functions[f"{node.name}.{member.name}"] = member
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    self.imports[alias.asname] = alias.name
                    self.module_aliases.add(alias.asname)
                else:
                    top = alias.name.split(".", 1)[0]
                    self.imports[top] = top
                    self.module_aliases.add(top)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: anchor at this module's package
                package = self.module.rsplit(".", node.level)
                prefix = package[0] if len(package) > node.level else ""
                base = f"{prefix}.{base}".strip(".") if base else prefix
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                self.imports[local] = target
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.module_globals[target.id] = node.value
        elif isinstance(node, ast.AnnAssign):
            if (isinstance(node.target, ast.Name)
                    and node.value is not None):
                self.module_globals[node.target.id] = node.value
        elif isinstance(node, (ast.If, ast.Try)):
            for sub in node.body:
                self._index_top(sub)


class SymbolTable:
    """All modules of one analyzed file set, resolvable by name."""

    def __init__(self, files: list[ParsedFile]) -> None:
        self.modules: dict[str, ModuleSymbols] = {}
        self.by_parsed: dict[int, ModuleSymbols] = {}
        #: stem -> modules sharing it, for sibling-fixture resolution.
        self._by_stem: dict[str, list[ModuleSymbols]] = {}
        for parsed in files:
            symbols = ModuleSymbols.build(parsed)
            # Last writer wins on (pathological) duplicate names; scans
            # are sorted, so the choice is at least deterministic.
            self.modules[symbols.module] = symbols
            self.by_parsed[id(parsed)] = symbols
            self._by_stem.setdefault(parsed.path.stem,
                                     []).append(symbols)

    def of(self, parsed: ParsedFile) -> ModuleSymbols:
        """The symbols of one analyzed file."""
        return self.by_parsed[id(parsed)]

    def resolve_module(self, dotted: str,
                       importer: ModuleSymbols | None = None,
                       ) -> ModuleSymbols | None:
        """The analyzed module a dotted import target names, if any.

        A plain single-part target (``import helper``) additionally
        matches a same-directory sibling of the importer, which is how
        multi-file corpus fixtures reference each other.
        """
        found = self.modules.get(dotted)
        if found is not None:
            return found
        if importer is not None and "." not in dotted:
            parent = importer.parsed.path.parent
            for candidate in self._by_stem.get(dotted, []):
                if candidate.parsed.path.parent == parent:
                    return candidate
        return None

    def resolve_symbol(self, dotted: str,
                       importer: ModuleSymbols | None = None,
                       ) -> tuple[ModuleSymbols, str] | None:
        """Split a dotted target into (defining module, local name).

        ``repro.perf.parallel.merge_payload`` -> (parallel's symbols,
        ``"merge_payload"``) when that module is in the analyzed set and
        defines the name.
        """
        module = self.resolve_module(dotted, importer)
        if module is not None:
            return None  # names a module, not a symbol within one
        if "." not in dotted:
            return None
        prefix, _, name = dotted.rpartition(".")
        module = self.resolve_module(prefix, importer)
        if module is None:
            return None
        if (name in module.functions or name in module.classes
                or name in module.module_globals
                or name in module.imports):
            return module, name
        return None

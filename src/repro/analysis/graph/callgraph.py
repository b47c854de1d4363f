"""Import/call graph over the analyzed file set.

Nodes are functions and methods (qualified as ``module:func`` /
``module:Cls.method``); edges are syntactically resolvable calls:

* ``f(...)`` — a name defined in the same module, or imported via
  ``from m import f`` from an analyzed module;
* ``mod.f(...)`` — an attribute call through a module alias bound by
  ``import mod`` / ``from pkg import mod``;
* ``self.m(...)`` / ``cls.m(...)`` — a method of the enclosing class.

Anything else (duck-typed attribute calls, ``importlib`` indirection)
stays unresolved — the graph is an under-approximation, which is the
right polarity for reachability-based rules: they may miss, they do not
hallucinate edges.  :meth:`CallGraph.reachable_from` answers the
interprocedural questions the concurrency and taint rules ask.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import ParsedFile
from repro.analysis.graph.symbols import ModuleSymbols, SymbolTable

__all__ = ["CallGraph", "FunctionInfo", "dotted_parts", "qualify"]


def dotted_parts(node: ast.expr) -> tuple[str, ...]:
    """``('np', 'random', 'seed')`` for an attribute chain, else ()."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def qualify(module: str, local: str) -> str:
    """The graph-wide id of one function (``module:local``)."""
    return f"{module}:{local}"


@dataclass
class FunctionInfo:
    """One call-graph node."""

    qname: str
    module: str
    local: str  # "run" or "Launcher.submit"
    node: ast.AST
    parsed: ParsedFile
    #: resolved callee qnames, in first-call order (deduplicated).
    calls: list[str] = field(default_factory=list)


class CallGraph:
    """Functions and resolved call edges of one analyzed project."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.functions: dict[str, FunctionInfo] = {}
        self.callers: dict[str, list[str]] = {}
        for symbols in table.modules.values():
            for local, node in symbols.functions.items():
                qname = qualify(symbols.module, local)
                self.functions[qname] = FunctionInfo(
                    qname=qname, module=symbols.module, local=local,
                    node=node, parsed=symbols.parsed)
        for info in self.functions.values():
            self._link(info)

    # -- construction -----------------------------------------------------

    def _link(self, info: FunctionInfo) -> None:
        symbols = self._scope_symbols(info)
        seen: set[str] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            for target in self.resolve_call(node, symbols, info):
                if target not in seen:
                    seen.add(target)
                    info.calls.append(target)
                    self.callers.setdefault(target, []).append(
                        info.qname)

    def _scope_symbols(self, info: FunctionInfo) -> ModuleSymbols:
        """Module symbols extended with the function's own imports.

        Code that imports lazily inside function bodies (as the CLI
        handlers do) must resolve those aliases too, or the whole
        subtree behind them falls off the graph.
        """
        base = self.table.of(info.parsed)
        overlay: dict[str, str] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        overlay[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".", 1)[0]
                        overlay[top] = top
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                base_mod = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    overlay[local] = (f"{base_mod}.{alias.name}"
                                      if base_mod else alias.name)
        if not overlay:
            return base
        merged = ModuleSymbols(
            module=base.module, parsed=base.parsed,
            functions=base.functions, classes=base.classes,
            imports={**base.imports, **overlay},
            module_globals=base.module_globals,
            module_aliases=base.module_aliases)
        return merged

    def resolve_call(self, call: ast.Call, symbols: ModuleSymbols,
                     info: FunctionInfo | None = None) -> list[str]:
        """Qnames a call expression resolves to (possibly empty)."""
        return self.resolve_name(call.func, symbols, info)

    def resolve_name(self, func: ast.expr, symbols: ModuleSymbols,
                     info: FunctionInfo | None = None) -> list[str]:
        """Qnames a function-valued expression resolves to.

        Used both for call targets and for bare function references
        (``Process(target=_worker_main)``).
        """
        if isinstance(func, ast.Name):
            return self._resolve_bare(func.id, symbols)
        dotted = dotted_parts(func)
        if len(dotted) < 2:
            return []
        head, rest = dotted[0], dotted[1:]
        # self.m() / cls.m(): method on the enclosing class.
        if head in ("self", "cls") and info and "." in info.local:
            cls_name = info.local.split(".", 1)[0]
            local = f"{cls_name}.{'.'.join(rest)}"
            if local in symbols.functions:
                return [qualify(symbols.module, local)]
            return []
        # mod.f() / pkg.mod.f(): through a module alias.
        target = symbols.imports.get(head)
        if target is None:
            # Cls.m(): a class defined or imported in this module.
            if head in symbols.classes:
                local = f"{head}.{'.'.join(rest)}"
                if local in symbols.functions:
                    return [qualify(symbols.module, local)]
            return []
        dotted_target = ".".join((target, *rest))
        prefix, _, name = dotted_target.rpartition(".")
        module = self.table.resolve_module(prefix, symbols)
        if module is not None and name in module.functions:
            return [qualify(module.module, name)]
        # Cls.m through an imported class: from m import Cls; Cls.m().
        resolved = self.table.resolve_symbol(
            ".".join((target, rest[0])) if rest else target, symbols)
        if resolved is not None and len(rest) >= 2:
            module, cls_name = resolved
            local = f"{cls_name}.{'.'.join(rest[1:])}"
            if local in module.functions:
                return [qualify(module.module, local)]
        return []

    def _resolve_bare(self, name: str, symbols: ModuleSymbols,
                      ) -> list[str]:
        if name in symbols.functions:
            return [qualify(symbols.module, name)]
        if name in symbols.classes:  # constructor -> __init__ if defined
            local = f"{name}.__init__"
            if local in symbols.functions:
                return [qualify(symbols.module, local)]
            return []
        target = symbols.imports.get(name)
        if target is None:
            return []
        resolved = self.table.resolve_symbol(target, symbols)
        if resolved is None:
            return []
        module, local = resolved
        if local in module.functions:
            return [qualify(module.module, local)]
        if local in module.classes:
            init = f"{local}.__init__"
            if init in module.functions:
                return [qualify(module.module, init)]
        return []

    # -- queries ----------------------------------------------------------

    def reachable_from(self, seeds: list[str]) -> set[str]:
        """Every function reachable from the seed qnames (inclusive)."""
        seen = set()
        frontier = [q for q in seeds if q in self.functions]
        while frontier:
            qname = frontier.pop()
            if qname in seen:
                continue
            seen.add(qname)
            frontier.extend(self.functions[qname].calls)
        return seen

    def call_chain(self, start: str, goal: str) -> list[str] | None:
        """A shortest start->goal call path (qnames), or None."""
        if start not in self.functions:
            return None
        parents: dict[str, str] = {start: start}
        frontier = [start]
        while frontier:
            nxt: list[str] = []
            for qname in frontier:
                for callee in self.functions[qname].calls:
                    if callee in parents:
                        continue
                    parents[callee] = qname
                    if callee == goal:
                        chain = [callee]
                        while chain[-1] != start:
                            chain.append(parents[chain[-1]])
                        return list(reversed(chain))
                    nxt.append(callee)
            frontier = nxt
        return None

    def to_json(self) -> dict[str, object]:
        """JSON-able dump (``analyze --graph json``)."""
        nodes = []
        for qname in sorted(self.functions):
            info = self.functions[qname]
            nodes.append({
                "qname": qname,
                "module": info.module,
                "name": info.local,
                "path": info.parsed.display_path,
                "line": getattr(info.node, "lineno", 1),
                "calls": sorted(info.calls),
            })
        edges = [[q, callee]
                 for q in sorted(self.functions)
                 for callee in sorted(self.functions[q].calls)]
        return {"n_functions": len(nodes), "n_edges": len(edges),
                "functions": nodes, "edges": edges}

    def to_dot(self) -> str:
        """Graphviz dump (``analyze --graph dot``)."""
        lines = ["digraph callgraph {", "  rankdir=LR;",
                 "  node [shape=box, fontsize=10];"]
        for qname in sorted(self.functions):
            lines.append(f'  "{qname}";')
        for qname in sorted(self.functions):
            for callee in sorted(self.functions[qname].calls):
                lines.append(f'  "{qname}" -> "{callee}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

"""The whole-program context handed to analysis rules.

A :class:`Project` wraps the parsed file set with lazily built
whole-program structure: the cross-module symbol table, the import/call
graph, and per-function CFGs (cached by definition node).  Rules receive
a Project instead of a bare file list — local rules iterate
``project.files`` exactly as before, cross-file rules reach for
``project.call_graph`` / ``project.cfg_of``.

Everything is built at most once per analysis run and shared across all
rules, which is what keeps the whole-program analyzer inside its CI
wall-clock budget (the blocking ``analyze`` step runs under
``timeout 30``).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.analysis.engine import ParsedFile
from repro.analysis.graph.callgraph import CallGraph
from repro.analysis.graph.cfg import CFG, build_cfg
from repro.analysis.graph.symbols import ModuleSymbols, SymbolTable

__all__ = ["Project"]


class Project(Sequence):
    """One analyzed file set plus its lazily built program graphs."""

    def __init__(self, files: Sequence[ParsedFile]) -> None:
        self.files: list[ParsedFile] = list(files)
        self._table: SymbolTable | None = None
        self._call_graph: CallGraph | None = None
        self._cfgs: dict[int, CFG] = {}

    # Sequence protocol: a Project quacks like the file list, so
    # helpers written against ``Sequence[ParsedFile]`` keep working.
    def __len__(self) -> int:
        return len(self.files)

    def __getitem__(self, index):
        return self.files[index]

    def __iter__(self) -> Iterator[ParsedFile]:
        return iter(self.files)

    # -- whole-program structure ------------------------------------------

    @property
    def table(self) -> SymbolTable:
        """The cross-module symbol table (built on first use)."""
        if self._table is None:
            self._table = SymbolTable(self.files)
        return self._table

    @property
    def call_graph(self) -> CallGraph:
        """The project call graph (built on first use)."""
        if self._call_graph is None:
            self._call_graph = CallGraph(self.table)
        return self._call_graph

    def symbols_of(self, parsed: ParsedFile) -> ModuleSymbols:
        """The symbol table entry of one analyzed file."""
        return self.table.of(parsed)

    def cfg_of(self, func_node) -> CFG:
        """The (cached) control-flow graph of one function def."""
        cfg = self._cfgs.get(id(func_node))
        if cfg is None:
            cfg = build_cfg(func_node)
            self._cfgs[id(func_node)] = cfg
        return cfg

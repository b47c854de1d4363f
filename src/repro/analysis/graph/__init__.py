"""repro.analysis.graph — whole-program structure for the analyzer.

A per-file AST linter cannot see cross-module invariants such as lock
discipline in the cache store or wall-clock provenance reaching a
recorded seed two calls away.  This subpackage is the substrate that
makes those checkable:

* :mod:`symbols` — cross-module symbol table (defs, classes, imports);
* :mod:`callgraph` — resolved import/call graph with reachability and
  shortest-call-chain queries;
* :mod:`cfg` — per-function control-flow graphs;
* :mod:`dataflow` — a bounded path-sensitive solver over CFGs;
* :mod:`project` — the :class:`~repro.analysis.graph.project.Project`
  context rules receive, building all of the above lazily and once.
"""

from repro.analysis.graph.callgraph import (
    CallGraph,
    FunctionInfo,
    dotted_parts,
    qualify,
)
from repro.analysis.graph.cfg import (
    CFG,
    Block,
    Test,
    WithEnter,
    WithExit,
    build_cfg,
)
from repro.analysis.graph.dataflow import (
    DEFAULT_MAX_PATHS,
    Path,
    PathSet,
    iter_paths,
    solve_paths,
)
from repro.analysis.graph.project import Project
from repro.analysis.graph.symbols import (
    ModuleSymbols,
    SymbolTable,
    module_name_for,
)

__all__ = [
    "CFG",
    "Block",
    "CallGraph",
    "DEFAULT_MAX_PATHS",
    "FunctionInfo",
    "ModuleSymbols",
    "Path",
    "PathSet",
    "Project",
    "SymbolTable",
    "Test",
    "WithEnter",
    "WithExit",
    "build_cfg",
    "dotted_parts",
    "iter_paths",
    "module_name_for",
    "qualify",
    "solve_paths",
]

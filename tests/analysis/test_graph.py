"""Unit tests for the whole-program layer: symbols, call graph, CFG,
path enumeration, and the Project context."""

import ast
from pathlib import Path

import pytest

from repro.analysis.engine import ParsedFile, collect_files
from repro.analysis.graph import Project
from repro.analysis.graph.callgraph import dotted_parts, qualify
from repro.analysis.graph.cfg import Test as BranchTest
from repro.analysis.graph.cfg import build_cfg
from repro.analysis.graph.dataflow import iter_paths, solve_paths
from repro.analysis.graph.symbols import module_name_for

CORPUS = Path(__file__).parent / "corpus"


def _parse(tmp_path, name, source):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return ParsedFile.parse(target, name)


def _project(tmp_path, **modules):
    files = [_parse(tmp_path, f"{name}.py", source)
             for name, source in sorted(modules.items())]
    return Project(files)


# -- symbol table ---------------------------------------------------------

def test_module_name_for_repro_packages_and_fixtures():
    assert module_name_for(
        Path("src/repro/perf/parallel.py")) == "repro.perf.parallel"
    assert module_name_for(
        Path("src/repro/experiments/__init__.py")) == "repro.experiments"
    assert module_name_for(
        Path("tests/analysis/corpus/helper.py")) == "helper"


def test_symbols_index_defs_imports_and_globals(tmp_path):
    project = _project(tmp_path, mod=(
        "import numpy as np\n"
        "from os import path as osp\n"
        "LIMITS = {\"a\": 1}\n"
        "def top():\n"
        "    return 1\n"
        "class Box:\n"
        "    def get(self):\n"
        "        return LIMITS\n"
    ))
    symbols = project.symbols_of(project.files[0])
    assert set(symbols.functions) == {"top", "Box.get"}
    assert set(symbols.classes) == {"Box"}
    assert symbols.imports["np"] == "numpy"
    assert symbols.imports["osp"] == "os.path"
    assert "np" in symbols.module_aliases
    assert isinstance(symbols.module_globals["LIMITS"], ast.Dict)
    assert symbols.expand(("np", "random", "seed")) == "numpy.random.seed"


def test_sibling_fixture_modules_resolve(tmp_path):
    project = _project(
        tmp_path,
        helper="def build():\n    return {}\n",
        driver=("from helper import build\n"
                "def run():\n"
                "    return build()\n"))
    graph = project.call_graph
    assert graph.functions["driver:run"].calls == ["helper:build"]


# -- call graph -----------------------------------------------------------

def test_dotted_parts_and_qualify():
    node = ast.parse("np.random.seed").body[0].value
    assert dotted_parts(node) == ("np", "random", "seed")
    assert dotted_parts(ast.parse("f()").body[0].value) == ()
    assert qualify("m", "Cls.run") == "m:Cls.run"


def test_call_graph_resolves_methods_and_aliases(tmp_path):
    project = _project(tmp_path, engine=(
        "class Pool:\n"
        "    def submit(self, spec):\n"
        "        return self._send(spec)\n"
        "    def _send(self, spec):\n"
        "        return spec\n"
        "def run(pool_cls):\n"
        "    return Pool().submit(1)\n"
    ))
    graph = project.call_graph
    assert graph.functions["engine:Pool.submit"].calls == [
        "engine:Pool._send"]
    # Constructor call resolves to nothing (Pool defines no __init__),
    # but the class is still indexed.
    assert "engine:Pool._send" in graph.callers
    assert graph.callers["engine:Pool._send"] == ["engine:Pool.submit"]


def test_function_level_lazy_imports_resolve(tmp_path):
    project = _project(
        tmp_path,
        tasks="def execute(spec):\n    return spec\n",
        worker=("def loop(queue):\n"
                "    from tasks import execute\n"
                "    for spec in iter(queue.get, None):\n"
                "        execute(spec)\n"))
    graph = project.call_graph
    assert graph.functions["worker:loop"].calls == ["tasks:execute"]


def test_reachability_and_call_chain(tmp_path):
    project = _project(tmp_path, chain=(
        "def a():\n    return b()\n"
        "def b():\n    return c()\n"
        "def c():\n    return 1\n"
        "def unrelated():\n    return 2\n"
    ))
    graph = project.call_graph
    reach = graph.reachable_from(["chain:a"])
    assert reach == {"chain:a", "chain:b", "chain:c"}
    assert graph.call_chain("chain:a", "chain:c") == [
        "chain:a", "chain:b", "chain:c"]
    assert graph.call_chain("chain:a", "chain:unrelated") is None


def test_graph_dumps_are_deterministic(tmp_path):
    project = _project(tmp_path, chain=(
        "def a():\n    return b()\n"
        "def b():\n    return 1\n"
    ))
    graph = project.call_graph
    dump = graph.to_json()
    assert dump["n_functions"] == 2
    assert dump["edges"] == [["chain:a", "chain:b"]]
    assert dump["functions"][0]["qname"] == "chain:a"
    dot = graph.to_dot()
    assert dot.startswith("digraph callgraph {")
    assert '"chain:a" -> "chain:b";' in dot
    assert graph.to_json() == dump  # stable across calls


# -- CFG + path enumeration ----------------------------------------------

def _func(source):
    return ast.parse(source).body[0]


def test_build_cfg_rejects_non_functions():
    with pytest.raises(TypeError, match="function def"):
        build_cfg(ast.parse("x = 1").body[0])


def test_if_else_enumerates_both_paths():
    cfg = build_cfg(_func(
        "def f(flag):\n"
        "    x = 1\n"
        "    if flag:\n"
        "        x = 2\n"
        "    return x\n"))
    path_set = iter_paths(cfg)
    assert not path_set.truncated
    assert len(path_set.paths) == 2
    for path in path_set.paths:
        assert path.blocks[0] == cfg.entry
        assert path.blocks[-1] == cfg.exit


def test_loops_are_bounded_not_unrolled():
    cfg = build_cfg(_func(
        "def f(items):\n"
        "    total = 0\n"
        "    for item in items:\n"
        "        total += item\n"
        "    return total\n"))
    path_set = iter_paths(cfg)
    assert not path_set.truncated
    # Zero-iteration path plus bounded traversals, all finite.
    assert 2 <= len(path_set.paths) <= 4


def test_try_except_adds_exception_edges_and_handler_entries():
    cfg = build_cfg(_func(
        "def f(path):\n"
        "    try:\n"
        "        handle = open(path)\n"
        "    except OSError:\n"
        "        return None\n"
        "    return handle\n"))
    assert cfg.handler_entries
    path_set = iter_paths(cfg)
    # At least one path routes through a handler entry.
    assert any(set(p.blocks) & cfg.handler_entries
               for p in path_set.paths)


def test_pathological_branching_reports_truncation():
    body = "".join(f"    if f{i}():\n        x += 1\n"
                   for i in range(12))
    cfg = build_cfg(_func(f"def f():\n    x = 0\n{body}    return x\n"))
    path_set = iter_paths(cfg, max_paths=64)
    assert path_set.truncated
    assert len(path_set.paths) == 64


def test_solve_paths_folds_transfer_over_items():
    cfg = build_cfg(_func(
        "def f(flag):\n"
        "    a = 1\n"
        "    if flag:\n"
        "        b = 2\n"
        "    return a\n"))
    results, truncated = solve_paths(
        cfg,
        transfer=lambda state, item: state + (
            1 if isinstance(item, ast.Assign) else 0),
        initial=lambda: 0)
    assert not truncated
    assert sorted(state for state, _ in results) == [1, 2]
    assert all(isinstance(item, (ast.stmt, BranchTest))
               for _, path in results for item in path.items(cfg))


# -- Project context ------------------------------------------------------

def test_project_is_a_sequence_of_parsed_files():
    files = collect_files([CORPUS / "units_bad.py"])
    project = Project(files)
    assert len(project) == 1
    assert project[0] is files[0]
    assert list(project) == files


def test_project_caches_structure_and_cfgs(tmp_path):
    project = _project(tmp_path, mod="def f():\n    return 1\n")
    assert project.table is project.table
    assert project.call_graph is project.call_graph
    func = project.symbols_of(project.files[0]).functions["f"]
    assert project.cfg_of(func) is project.cfg_of(func)

"""Import direction and reachability of the ``repro`` package.

The science packages (Eq. 3 power budget, thermal limit, link energy,
compute deadline, the decoders and codecs they feed, and the fleet and
session simulators built on them) must load without the result cache,
the process launcher or the fault injector; the CLI must not load the
launcher or ``multiprocessing`` unless ``--jobs`` forks, nor networkx,
nor scipy, nor the chip heat-grid solver, nor a deleted module.  Each
of these cases imports one package in a fresh interpreter and inspects
``sys.modules``; a default ``evaluate`` run must load no scipy either.
``repro.fleet`` forks through the launcher only inside
``run_fleet(jobs > 1)``, with a function-local import, so importing it
loads neither the launcher nor the fault injector.  ``import repro``
loads no numpy, so the entry point's one-BLAS-thread pin
(``repro.__main__``) takes effect, and a preset value wins.

No science module imports ``repro.obs`` at all, not even inside a
function: the drivers under ``repro.experiments`` and the CLI own every
span, counter and gauge, and the run seed lives in ``repro.seeds``.

Two static scans keep every module and public definition earning its
place.  The module walk follows imports (function-local ones included)
from the CLI entry points; the definition scan looks for a use of each
public top-level function or class of every reached module in
``src/`` or ``bench/``; tests do not count, so a definition only a
test calls must earn its place as the reference that test checks
other code against.  Both scans name their known exceptions
explicitly, with the ROADMAP item, EXPERIMENTS.md row, parity-oracle,
Monte-Carlo-check or test-hook role that justifies each.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

SCIENCE = ["repro.core", "repro.link", "repro.dnn", "repro.accel",
           "repro.thermal", "repro.signals", "repro.decoders",
           "repro.compress", "repro.fleet", "repro.simulate"]

INFRASTRUCTURE = ("repro.cache", "repro.perf", "repro.fault")


def _loaded_after_import(module: str, top: str = "repro") -> list[str]:
    """Modules of the ``top`` package in ``sys.modules`` after
    importing ``module`` in a fresh interpreter."""
    code = (f"import json, sys, {module}; "
            "print(json.dumps(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {top!r})))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _within(name: str, packages: tuple[str, ...]) -> bool:
    return any(name == pkg or name.startswith(pkg + ".")
               for pkg in packages)


@pytest.mark.parametrize("package", SCIENCE)
def test_science_package_imports_no_infrastructure(package):
    leaked = [name for name in _loaded_after_import(package)
              if _within(name, INFRASTRUCTURE)]
    assert leaked == [], f"{package} pulls in {leaked}"


def test_cli_does_not_load_networkx():
    assert _loaded_after_import("repro.cli", "networkx") == []


def test_cli_does_not_load_scipy():
    assert _loaded_after_import("repro.cli", "scipy") == []


def test_evaluate_does_not_load_scipy(tmp_path):
    script = ("import json, sys; from repro.cli import main; "
              "code = main(['evaluate', '--quiet', '--output-dir', "
              f"{str(tmp_path)!r}]); "
              "print(json.dumps([code] + sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    code, *loaded = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == [], f"evaluate loads {loaded}"
    assert len(list(tmp_path.glob("*.csv"))) == 10


def test_cli_loads_neither_the_launcher_nor_multiprocessing():
    leaked = [name for name in _loaded_after_import("repro.cli")
              if _within(name, ("repro.perf",))]
    assert leaked == [], f"repro.cli pulls in {leaked}"
    assert _loaded_after_import("repro.cli", "multiprocessing") == []


def test_package_root_loads_no_numpy():
    """``repro.__main__`` pins BLAS before numpy loads only while
    ``import repro`` itself loads no numpy."""
    assert _loaded_after_import("repro", "numpy") == []


def _blas_threads_after_entry_import(preset: str | None) -> str | None:
    """``OPENBLAS_NUM_THREADS`` after ``import repro.__main__`` in a
    fresh interpreter started with it unset or set to ``preset``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import json, os, repro.__main__; "
            "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_entry_point_pins_one_blas_thread():
    assert _blas_threads_after_entry_import(None) == "1"


def test_entry_point_keeps_a_preset_blas_thread_count():
    assert _blas_threads_after_entry_import("3") == "3"


def test_fleet_does_not_load_the_launcher():
    leaked = [name for name in _loaded_after_import("repro.fleet")
              if _within(name, ("repro.perf",))]
    assert leaked == [], f"repro.fleet pulls in {leaked}"


def test_fleet_does_not_load_the_fault_injector():
    leaked = [name for name in _loaded_after_import("repro.fleet")
              if _within(name, ("repro.fault",))]
    assert leaked == [], f"repro.fleet pulls in {leaked}"


#: Modules deleted because no command reached them, the static
#: analyzer whose unique checks became tests/test_source_rules.py, the
#: timeline analytics that byte comparisons replaced, the
#: waveform-level neural-interface model only examples used, and the
#: partitioned DNN evaluator that ``repro.core.comp_centric`` absorbed,
#: and the safety dashboard whose verdicts ``validate`` now scores;
#: none may return.
DELETED = ("repro.wearable", "repro.dnn.snn", "repro.dnn.quantize",
           "repro.decoders.lda", "repro.accel.simulate", "repro.ni",
           "repro.signals.audio", "repro.analysis", "repro.obs.analyze",
           "repro.core.partitioning", "repro.obs.report")


def test_cli_loads_neither_the_heat_grid_nor_a_deleted_module():
    leaked = [name for name in _loaded_after_import("repro.cli")
              if _within(name, ("repro.thermal.grid",) + DELETED)]
    assert leaked == [], f"repro.cli pulls in {leaked}"


# ------------------------------------------------------------ static scans

def _module_files(src: Path) -> dict[str, Path]:
    """Dotted module name -> source file, for every module under
    ``src`` (a package is named by its ``__init__.py``)."""
    modules = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imported_names(module: str, path: Path):
    """Every dotted name an ``import`` anywhere in the file may load:
    ``from a import b`` yields both ``a`` and ``a.b`` (``b`` may be a
    submodule); relative imports are resolved against ``module``."""
    package = module if path.name == "__init__.py" else \
        module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - node.level + 1]
                                + ([node.module] if node.module else []))
            else:
                base = node.module
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _unreached_modules(src: Path, roots: tuple[str, ...]) -> set[str]:
    """Modules under ``src`` that no import chain from ``roots``
    loads.  Loading ``a.b.c`` also loads the packages ``a`` and
    ``a.b``."""
    modules = _module_files(src)
    reached: set[str] = set()
    pending = list(roots)
    while pending:
        parts = pending.pop().split(".")
        for depth in range(1, len(parts) + 1):
            name = ".".join(parts[:depth])
            if name in modules and name not in reached:
                reached.add(name)
                pending.extend(_imported_names(name, modules[name]))
    return set(modules) - reached


def _modules_importing(src: Path, packages: tuple[str, ...],
                       banned: tuple[str, ...]) -> set[str]:
    """Modules of ``packages`` that import anything under ``banned``,
    at module level or inside a function."""
    return {module for module, path in _module_files(src).items()
            if _within(module, packages)
            and any(_within(name, banned)
                    for name in _imported_names(module, path))}


def _names_used(node: ast.AST) -> set[str]:
    """Identifiers a statement uses: names and attributes.  Words in
    strings do not count, so a docstring cross-reference keeps nothing
    alive.  Import statements bind names without using them and yield
    none."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _is_dunder_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in stmt.targets)


def _unreferenced_definitions(src: Path, packages: tuple[str, ...],
                              search: list[Path]) -> set[str]:
    """Public top-level functions and classes of ``packages`` (under
    ``src``) whose name no statement of the ``search`` files uses,
    other than the definition itself and ``__all__``.  Returned as
    ``module.name``."""
    uses: dict[str, set[tuple[Path, int]]] = {}
    for path in search:
        for index, stmt in enumerate(ast.parse(path.read_text()).body):
            if _is_dunder_all(stmt):
                continue
            for name in _names_used(stmt):
                uses.setdefault(name, set()).add((path.resolve(), index))
    unused = set()
    for module, path in _module_files(src).items():
        if not _within(module, packages):
            continue
        for index, stmt in enumerate(ast.parse(path.read_text()).body):
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not stmt.name.startswith("_")
                    and not uses.get(stmt.name, set())
                    - {(path.resolve(), index)}):
                unused.add(f"{module}.{stmt.name}")
    return unused


#: CLI entry points: ``python -m repro`` and the ``mindful-repro``
#: console script both start in ``repro.__main__`` (which pins BLAS to
#: one thread, then imports ``repro.cli``).
ENTRY_POINTS = ("repro.__main__", "repro.cli")

#: Packages and modules no command reaches yet -> the ROADMAP item
#: that wires them.
UNREACHED_PACKAGES = {
    "repro.accel.interconnect": "ROADMAP item 3: the second-order "
                                "memory claim in validate",
    "repro.accel.memory": "ROADMAP item 3: the second-order memory "
                          "claim in validate",
    "repro.compress": "ROADMAP item 4: measure explore's compression "
                      "ratio with the Rice codec",
    "repro.core.sensitivity": "ROADMAP item 3: the sensitivity claim "
                              "in validate",
    "repro.decoders.spikesort": "ROADMAP item 4: the measured event "
                                "rate behind the event-stream strategy",
    "repro.link.wpt": "ROADMAP item 3: the WPT-derating row as a "
                      "validate claim",
    "repro.signals": "ROADMAP item 3: the null-signal decoder control",
    "repro.thermal.grid": "ROADMAP item 3: the thermal-uniformity claim "
                          "in validate",
}

#: Definitions of reached modules that no command or benchmark uses
#: yet -> the EXPERIMENTS.md row their tier-1 tests back (ROADMAP item
#: 3 wires them into ``validate``), or the oracle, Monte-Carlo-check,
#: test-hook or round-trip role that keeps them, naming the test.
UNREFERENCED_KEEP = {
    "repro.core.multi_implant.channels_vs_single_implant":
        "Multi-implant tiling",
    "repro.accel.schedule.schedule_non_pipelined":
        "plain-bisection reference the pool search of best_schedule is "
        "checked against (tests/properties/test_schedule_properties.py)",
    "repro.dnn.models.build_speech_dncnn":
        "PARITY_ORACLES pair with speech_dncnn_profile: the layer stack "
        "its width arithmetic is checked against",
    "repro.dnn.models.build_speech_mlp":
        "PARITY_ORACLES pair with speech_mlp_profile: the layer stack "
        "tests/dnn/test_models.py checks its width arithmetic against",
    "repro.link.modulation.OOK":
        "Monte-Carlo check of the closed-form OOK BER "
        "(tests/link/test_channel.py::TestMeasuredVsTheory)",
    "repro.link.modulation.BPSK":
        "Monte-Carlo check of the closed-form BPSK BER "
        "(tests/link/test_channel.py::TestMeasuredVsTheory)",
    "repro.link.modulation.QPSK":
        "Monte-Carlo check of the closed-form QPSK BER "
        "(tests/link/test_channel.py::TestMeasuredVsTheory)",
    "repro.link.channel.measure_ber_sweep":
        "the seeded Monte-Carlo BER that "
        "tests/link/test_channel.py::TestMeasuredVsTheory checks the "
        "closed-form BER of every scheme against",
    "repro.link.protocol.simulate_arq":
        "Monte-Carlo ARQ session that tests/link/test_protocol.py::"
        "TestSimulation::test_simulation_tracks_theory checks "
        "expected_transmissions against",
    "repro.fleet.decoders.make_session_decoder":
        "scalar parity oracle of the batched calibration",
    "repro.simulate.cursor_task.run_closed_loop_cohort":
        "PARITY_ORACLES pair with run_closed_loop_session: the 1-session "
        "cohort the fleet engine is checked against",
    "repro.cache.fingerprint.clear_cached_fingerprints":
        "test hook: drops memoized fingerprints after a test edits "
        "source in place",
    "repro.units.linear_to_db": "round-trip partner of db_to_linear",
    "repro.units.mbps": "round-trip partner of to_mbps",
    "repro.units.to_cm2": "round-trip partner of cm2",
}


def _search_files(repo: Path) -> list[Path]:
    """Python files outside tests under ``src/`` and ``bench/``."""
    return [path for top in ("src", "bench")
            for path in sorted((repo / top).rglob("*.py"))
            if "tests" not in path.relative_to(repo).parts]


def test_every_module_is_reached_from_the_cli():
    unreached = _unreached_modules(SRC, ENTRY_POINTS)
    expected = {name for name in _module_files(SRC)
                if _within(name, tuple(UNREACHED_PACKAGES))}
    assert unreached - expected == set(), (
        "no command imports these modules: wire them to a command or "
        "delete them")
    assert expected - unreached == set(), (
        "now reached from the CLI: drop their package from "
        "UNREACHED_PACKAGES")


def test_every_public_definition_is_used():
    unused = {name for name in _unreferenced_definitions(
                  SRC, ("repro",), _search_files(REPO))
              if not _within(name, tuple(UNREACHED_PACKAGES))}
    assert unused - set(UNREFERENCED_KEEP) == set(), (
        "only tests use these definitions: use them or delete them")
    assert set(UNREFERENCED_KEEP) - unused == set(), (
        "now used or removed: drop them from UNREFERENCED_KEEP")


def test_science_imports_no_telemetry():
    leaked = _modules_importing(SRC, tuple(SCIENCE), ("repro.obs",))
    assert leaked == set(), (
        "science emits nothing: move the span or metric into the driver")


def _write(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_scans_on_a_toy_package(tmp_path):
    src = tmp_path / "src"
    _write(src, {
        "pkg/__init__.py": "",
        "pkg/cli.py": (
            "from pkg.sci import near\n"
            "def main():\n"
            "    \"\"\"Unlike only_tested, reaches the far helper.\"\"\"\n"
            "    from pkg.sci.far import helper\n"
            "    return near.run() + helper()\n"),
        "pkg/orphan.py": "def lost():\n    return 0\n",
        "pkg/sci/__init__.py": (
            "from pkg.sci.far import only_tested\n"
            "__all__ = ['only_tested']\n"),
        "pkg/sci/near.py": (
            "from . import rel\n"
            "def run():\n"
            "    return rel.used()\n"),
        "pkg/sci/rel.py": "def used():\n    return 1\n",
        "pkg/sci/far.py": (
            "def helper():\n"
            "    return 2\n"
            "def only_tested(n):\n"
            "    return only_tested(n - 1) if n else 0\n"),
    })
    _write(tmp_path, {"tests/test_far.py": (
        "from pkg.sci.far import only_tested\n"
        "def test_it():\n"
        "    assert only_tested(2) == 0\n")})

    # A function-local import reaches pkg.sci.far, a relative one
    # pkg.sci.rel; nothing imports pkg.orphan.
    assert _unreached_modules(src, ("pkg.cli",)) == {"pkg.orphan"}
    # A re-export, __all__, recursion, a test and a docstring mention
    # do not count as use.
    assert _unreferenced_definitions(
        src, ("pkg.sci",), _search_files(tmp_path)) == \
        {"pkg.sci.far.only_tested"}


def test_telemetry_scan_on_a_toy_package(tmp_path):
    _write(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/driver.py": "from pkg.obs.recorder import span\n",
        "pkg/sci/__init__.py": "",
        "pkg/sci/clean.py": "import pkg.sci.local\n",
        "pkg/sci/local.py": (
            "def fit():\n"
            "    from pkg.obs.recorder import inc\n"),
        "pkg/sci/relative.py": "from ..obs import recorder\n",
    })
    # The driver may import telemetry; a function-local or relative
    # import inside science may not.
    assert _modules_importing(tmp_path, ("pkg.sci",), ("pkg.obs",)) == \
        {"pkg.sci.local", "pkg.sci.relative"}

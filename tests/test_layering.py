"""Import direction: the science core imports no infrastructure.

The model packages (Eq. 3 power budget, thermal limit, link energy,
compute deadline, and the decoders and codecs they feed) must load
without the result cache, the static analyzer, the process pool or the
fault injector; and the CLI must not load the analyzer unless the
``analyze`` command runs, nor networkx at all.  Each case imports one
package in a fresh interpreter and inspects ``sys.modules``.

``repro.fleet`` is out of scope: it is a simulation driver built on
``repro.fault`` and ``repro.perf.seeds`` by design.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCIENCE = ["repro.core", "repro.link", "repro.ni", "repro.dnn",
           "repro.accel", "repro.thermal", "repro.signals",
           "repro.decoders", "repro.compress"]

INFRASTRUCTURE = ("repro.cache", "repro.analysis", "repro.perf",
                  "repro.fault")


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


def test_cli_does_not_load_the_analyzer():
    leaked = [name for name in _loaded_after_import("repro.cli")
              if _within(name, ("repro.analysis",))]
    assert leaked == [], f"repro.cli pulls in {leaked}"


def test_cli_does_not_load_networkx():
    assert _loaded_after_import("repro.cli", "networkx") == []

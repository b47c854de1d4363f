import builtins
import importlib
import json
import sys

import pytest

from bench.traced import IMPORT_LAYER, Tracer


@pytest.fixture
def clock():
    now = [0.0]
    return now


def _tracer(tmp_path, now, **kwargs):
    return Tracer(tmp_path / "trace", clock=lambda: now[0], **kwargs)


def test_self_time_nets_out_nested_calls_across_two_layers(tmp_path, clock):
    tracer = _tracer(tmp_path, clock)

    def inner():  # layer b
        clock[0] += 2.0

    def helper():  # layer a, called from a: stays in the caller's frame
        clock[0] += 5.0

    inner = tracer.wrap(inner, "b", "fake.b.inner")
    helper = tracer.wrap(helper, "a", "fake.a.helper")

    def outer():  # layer a
        clock[0] += 1.0
        inner()
        helper()
        clock[0] += 3.0

    outer = tracer.wrap(outer, "a", "fake.a.outer")
    outer()
    assert dict(tracer.self_s) == {"a": 9.0, "b": 2.0}
    assert tracer.stack == [] and tracer.layer is None


def test_self_time_of_a_layer_reentered_below_another(tmp_path, clock):
    tracer = _tracer(tmp_path, clock)

    def leaf():  # a, below b
        clock[0] += 4.0

    leaf = tracer.wrap(leaf, "a", "fake.a.leaf")

    def middle():  # b
        clock[0] += 1.0
        leaf()
        clock[0] += 1.0

    middle = tracer.wrap(middle, "b", "fake.b.middle")

    def top():  # a
        clock[0] += 0.5
        middle()

    top = tracer.wrap(top, "a", "fake.a.top")
    top()
    assert dict(tracer.self_s) == {"a": 4.5, "b": 2.0}
    assert sum(tracer.self_s.values()) == clock[0]


def test_a_raising_call_still_closes_its_frame(tmp_path, clock):
    tracer = _tracer(tmp_path, clock)

    def boom():
        clock[0] += 1.0
        raise KeyError("x")

    boom = tracer.wrap(boom, "b", "fake.b.boom")
    with pytest.raises(KeyError):
        boom()
    assert dict(tracer.self_s) == {"b": 1.0}
    assert tracer.stack == []


def test_watched_functions_count_calls_and_inclusive_time(tmp_path, clock):
    tracer = _tracer(tmp_path, clock)

    def explore():
        clock[0] += 2.0

    explore = tracer.wrap(explore, "core", "repro.core.explorer.explore")
    explore()
    explore()
    assert tracer.calls["core.explore.calls"] == 2
    path = tracer.flush()
    record = json.loads(path.read_text())
    assert record["main"] is True
    assert record["calls"] == {"core.explore.calls": 2}
    assert record["self_s"] == {"core": 4.0}
    assert tracer.calls == {}  # flushed records are cleared


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "lib.py").write_text(
        "def f():\n"
        "    return 'lib'\n"
        "\n"
        "class C:\n"
        "    def m(self):\n"
        "        return f()\n"
        "\n"
        "    @staticmethod\n"
        "    def s():\n"
        "        return 1\n")
    (pkg / "late.py").write_text("def h():\n    return 42\n")
    (pkg / "user.py").write_text(
        "from fakepkg.lib import f\n"
        "\n"
        "def g():\n"
        "    return f()\n"
        "\n"
        "def lazy():\n"
        "    from fakepkg.late import h\n"
        "    return h()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(builtins, "__import__", builtins.__import__)
    yield importlib.import_module("fakepkg.user")
    for name in [n for n in sys.modules if n.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def test_from_import_alias_is_rebound_to_the_wrapper(tmp_path, clock,
                                                     fakepkg):
    lib = sys.modules["fakepkg.lib"]
    original = lib.f
    tracer = _tracer(tmp_path, clock, package="fakepkg")
    tracer.instrument_loaded()
    assert fakepkg.f is lib.f
    assert fakepkg.f is not original and fakepkg.f.__wrapped__ is original
    assert fakepkg.g() == "lib"
    assert lib.C().m() == "lib" and lib.C.s() == 1
    assert set(tracer.self_s) == {"user", "lib"}


def test_modules_imported_later_are_instrumented(tmp_path, clock, fakepkg):
    tracer = _tracer(tmp_path, clock, package="fakepkg")
    tracer.install()
    assert "fakepkg.late" not in sys.modules
    assert fakepkg.lazy() == 42
    assert sys.modules["fakepkg.late"].h.__traced__
    assert set(tracer.self_s) == {"user", "late", IMPORT_LAYER}

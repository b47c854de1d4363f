"""Tests for the span tracer."""

import json
import threading

import pytest

from repro.obs import trace
from repro.obs.trace import Tracer, span


@pytest.fixture(autouse=True)
def clean_tracer():
    """Each test starts and ends with a disabled, empty global tracer."""
    trace.disable()
    trace.TRACER.reset()
    yield
    trace.disable()
    trace.TRACER.reset()


class TestDisabled:
    def test_span_is_noop_and_records_nothing(self):
        with span("outer") as sp:
            sp.set(anything=1)
        assert trace.TRACER.roots == []

    def test_disabled_span_returns_shared_sentinel(self):
        assert span("a") is span("b")


class TestRecording:
    def test_nesting_builds_a_tree(self):
        trace.enable()
        with span("outer"):
            with span("inner_a"):
                pass
            with span("inner_b", key="v"):
                pass
        roots = trace.TRACER.roots
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner_a",
                                                       "inner_b"]
        assert roots[0].children[1].attrs == {"key": "v"}

    def test_durations_are_positive_and_nested(self):
        trace.enable()
        with span("outer"):
            with span("inner"):
                pass
        outer = trace.TRACER.roots[0]
        inner = outer.children[0]
        assert outer.duration_s >= inner.duration_s >= 0.0
        assert outer.self_time_s >= 0.0

    def test_set_attaches_attributes(self):
        trace.enable()
        with span("s") as sp:
            sp.set(rows=3)
        assert trace.TRACER.roots[0].attrs == {"rows": 3}

    def test_span_count(self):
        trace.enable()
        with span("a"):
            with span("b"):
                pass
        with span("c"):
            pass
        assert trace.TRACER.span_count() == 3


class TestThreadSafety:
    def test_threads_keep_independent_stacks(self):
        tracer = Tracer()
        errors = []

        def work(i):
            try:
                with tracer.start(f"thread{i}.outer"):
                    with tracer.start(f"thread{i}.inner"):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        roots = tracer.roots
        assert len(roots) == 8
        for root in roots:
            assert len(root.children) == 1
            assert root.children[0].name.endswith("inner")


class TestExport:
    def test_to_json_round_trips(self):
        trace.enable()
        with span("root", n=2):
            with span("child"):
                pass
        data = json.loads(trace.TRACER.to_json())
        assert data[0]["name"] == "root"
        assert data[0]["attrs"] == {"n": 2}
        assert data[0]["children"][0]["name"] == "child"
        assert data[0]["duration_s"] >= 0.0

    def test_render_tree_shows_names_and_durations(self):
        trace.enable()
        with span("root"):
            with span("child"):
                pass
        tree = trace.TRACER.render_tree()
        assert "root" in tree and "child" in tree
        assert "s" in tree  # some duration unit is printed

    def test_render_tree_empty(self):
        assert trace.TRACER.render_tree() == "(no spans recorded)"

    def test_reset_drops_spans(self):
        trace.enable()
        with span("root"):
            pass
        assert trace.TRACER.roots
        trace.TRACER.reset()
        assert trace.TRACER.roots == []

"""Tests for the recorder's spans and the span-forest view."""

import json
import threading

import pytest

from repro.obs import recorder
from repro.obs.recorder import RECORDER, Recorder, span


@pytest.fixture(autouse=True)
def clean_recorder():
    """Each test starts and ends with a disabled, empty recorder."""
    recorder.disable()
    recorder.reset()
    yield
    recorder.disable()
    recorder.reset()


class TestDisabled:
    def test_span_is_noop_and_records_nothing(self):
        with span("outer") as sp:
            sp.set(anything=1)
        assert RECORDER.roots() == []
        assert RECORDER.events == []

    def test_disabled_span_returns_shared_sentinel(self):
        assert span("a") is span("b")


class TestRecording:
    def test_nesting_builds_a_tree(self):
        recorder.enable()
        with span("outer"):
            with span("inner_a"):
                pass
            with span("inner_b", key="v"):
                pass
        roots = RECORDER.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner_a",
                                                       "inner_b"]
        assert roots[0].children[1].attrs == {"key": "v"}

    def test_durations_are_positive_and_nested(self):
        recorder.enable()
        with span("outer"):
            with span("inner"):
                pass
        outer = RECORDER.roots()[0]
        inner = outer.children[0]
        assert outer.duration_s >= inner.duration_s >= 0.0
        assert outer.self_time_s >= 0.0

    def test_set_attaches_attributes(self):
        recorder.enable()
        with span("s") as sp:
            sp.set(rows=3)
        assert RECORDER.roots()[0].attrs == {"rows": 3}
        # The span_end event carries the attrs as of the close.
        assert RECORDER.events[-1].attrs == {"rows": 3}
        assert RECORDER.events[0].attrs == {}

    def test_span_count(self):
        recorder.enable()
        with span("a"):
            with span("b"):
                pass
        with span("c"):
            pass
        assert sum(1 for root in RECORDER.roots()
                   for _ in root.walk()) == 3
        assert [e.kind for e in RECORDER.events] == [
            "span_start", "span_start", "span_end", "span_end",
            "span_start", "span_end"]


class TestThreadSafety:
    def test_threads_keep_independent_stacks(self):
        rec = Recorder()
        errors = []

        def work(i):
            try:
                with rec.span(f"thread{i}.outer"):
                    with rec.span(f"thread{i}.inner"):
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
        roots = rec.roots()
        assert len(roots) == 8
        for root in roots:
            assert len(root.children) == 1
            assert root.children[0].name.endswith("inner")


class TestExport:
    def test_to_json_round_trips(self):
        recorder.enable()
        with span("root", n=2):
            with span("child"):
                pass
        data = json.loads(json.dumps(RECORDER.to_dicts()))
        assert data[0]["name"] == "root"
        assert data[0]["attrs"] == {"n": 2}
        assert data[0]["children"][0]["name"] == "child"
        assert data[0]["duration_s"] >= 0.0
        # Timing stays on the span record, out of the timeline.
        assert "duration_s" not in RECORDER.to_jsonl()

    def test_render_tree_shows_names_and_durations(self):
        recorder.enable()
        with span("root"):
            with span("child"):
                pass
        tree = RECORDER.render_tree()
        assert "root" in tree and "child" in tree
        assert "s" in tree  # some duration unit is printed

    def test_render_tree_empty(self):
        assert RECORDER.render_tree() == "(no spans recorded)"

    def test_reset_drops_spans(self):
        recorder.enable()
        with span("root"):
            pass
        assert RECORDER.roots()
        recorder.reset()
        assert RECORDER.roots() == []

"""Tests for trace analytics over the event timeline."""

from __future__ import annotations

import json

from repro.obs.analyze import (ENGINE_LABEL, build_span_tree, critical_path,
                               critical_path_spans, diff_runs, filter_events,
                               load_events, render_critical_path, render_diff,
                               render_rollup, render_summary, rollup,
                               split_by_driver, summarize)


def _e(seq, driver, kind, name, **attrs):
    return {"seq": seq, "driver": driver, "kind": kind, "name": name,
            "attrs": attrs}


def _driver_stream(driver, seq0=0):
    """A small run: outer span with one metric, nested span with two."""
    return [
        _e(seq0 + 0, driver, "span_start", f"experiment.{driver}"),
        _e(seq0 + 1, driver, "metric", f"{driver}.rows", op="inc",
           value=1.0),
        _e(seq0 + 2, driver, "span_start", f"{driver}.summary"),
        _e(seq0 + 3, driver, "metric", f"{driver}.a", op="gauge",
           value=2.0),
        _e(seq0 + 4, driver, "metric", f"{driver}.b", op="gauge",
           value=3.0),
        _e(seq0 + 5, driver, "span_end", f"{driver}.summary"),
        _e(seq0 + 6, driver, "span_end", f"experiment.{driver}"),
    ]


def _run(drivers=("fig4", "fig5")):
    events = [_e(0, "", "span_start", "experiments.run_all")]
    for name in drivers:
        events.extend(_driver_stream(name, seq0=len(events)))
    events.append(_e(len(events), "", "span_end", "experiments.run_all"))
    return events


class TestLoadingAndFiltering:
    def test_load_events_skips_blanks_and_keeps_order(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [json.dumps(e) for e in _run()]
        path.write_text("\n".join(lines[:3]) + "\n\n"
                        + "\n".join(lines[3:]) + "\n", encoding="utf-8")
        events = load_events(path)
        assert [e["seq"] for e in events] == list(range(len(lines)))

    def test_load_events_rejects_garbage_with_location(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"seq": 0}\nnot json\n', encoding="utf-8")
        try:
            load_events(path)
        except ValueError as error:
            assert ":2:" in str(error)
        else:
            raise AssertionError("expected ValueError")

    def test_split_by_driver_preserves_first_appearance_order(self):
        streams = split_by_driver(_run(("fig7", "fig4")))
        assert list(streams) == ["", "fig7", "fig4"]

    def test_filter_events_by_driver_kind_and_name_substring(self):
        events = _run()
        metrics = filter_events(events, driver="fig5", kind="metric")
        assert all(e["driver"] == "fig5" and e["kind"] == "metric"
                   for e in metrics)
        assert len(metrics) == 3
        assert len(filter_events(events, name="summary")) == 4


class TestSpanTreeAndRollup:
    def test_build_span_tree_nesting_and_totals(self):
        roots = build_span_tree(_driver_stream("fig4"))
        assert len(roots) == 1
        outer = roots[0]
        assert outer["name"] == "experiment.fig4"
        assert outer["self_events"] == 1
        # nested span counts as 1 + its own 2 metrics
        assert outer["total_events"] == 4
        assert outer["children"][0]["total_events"] == 2

    def test_unmatched_span_end_is_tolerated(self):
        stream = [_e(0, "x", "span_end", "phantom"),
                  _e(1, "x", "metric", "orphan")]
        assert build_span_tree(stream) == []

    def test_rollup_orders_by_weight_and_can_drop_engine(self):
        rows = rollup(_run())
        # driver work is split out of the engine stream, so the engine
        # span weighs nothing and the experiment spans sort first
        assert rows[0]["span"] == "experiment.fig4"
        engine = [r for r in rows if r["driver"] == ENGINE_LABEL]
        assert engine and engine[0]["total_events"] == 0
        no_engine = rollup(_run(), include_engine=False)
        assert all(row["driver"] != ENGINE_LABEL for row in no_engine)
        fig4 = [r for r in no_engine if r["driver"] == "fig4"]
        assert {r["span"]: r["total_events"] for r in fig4} == {
            "experiment.fig4": 4, "fig4.summary": 2}

    def test_rollup_is_deterministic(self):
        assert rollup(_run()) == rollup(_run())


class TestCriticalPath:
    def test_descends_heaviest_chain(self):
        path = critical_path(_run())
        assert [step["span"] for step in path] == [
            "experiment.fig4", "fig4.summary"]
        assert path[0]["driver"] == "fig4"
        assert path[0]["share_pct"] == 50.0

    def test_driver_filter_selects_that_driver(self):
        path = critical_path(_run(), driver="fig5")
        assert path[0]["driver"] == "fig5"

    def test_empty_timeline_gives_empty_path(self):
        assert critical_path([]) == []
        assert render_critical_path([]) == "(no spans recorded)"

    def test_timed_mode_uses_durations(self):
        records = [
            {"name": "root", "duration_s": 1.0, "children": [
                {"name": "fast", "duration_s": 0.1, "children": []},
                {"name": "slow", "duration_s": 0.8, "children": []},
            ]},
        ]
        path = critical_path_spans(records)
        assert [step["span"] for step in path] == ["root", "slow"]
        assert path[0]["self_s"] == 0.1


class TestDiff:
    def test_identical_runs_are_equal(self):
        report = diff_runs(_run(), _run())
        assert report["equal"] and report["n_deltas"] == 0
        assert render_diff(report) == "runs are equivalent: 0 deltas"

    def test_engine_scope_excluded_by_default(self):
        plain = _run()
        drilled = [e for e in _run() if e["driver"] != ""]
        drilled.append(_e(99, "", "fault", "link.drop", domain="link"))
        assert diff_runs(plain, drilled)["equal"]
        assert not diff_runs(plain, drilled,
                             include_engine=True)["equal"]

    def test_added_and_removed_events_reported(self):
        a = _run(("fig4",))
        b = _run(("fig4",))
        b.insert(3, _e(98, "fig4", "fault", "link.drop", domain="link"))
        report = diff_runs(a, b)
        assert report["n_deltas"] == 1
        entry = report["drivers"]["fig4"]
        assert entry["added"][0]["name"] == "link.drop"
        assert "+1 -0" in render_diff(report)

    def test_reorder_detected_without_multiset_change(self):
        a = _run(("fig4",))
        b = _run(("fig4",))
        # swap the two gauge metrics inside the summary span
        b[4], b[5] = b[5], b[4]
        report = diff_runs(a, b)
        assert report["drivers"]["fig4"]["reordered"]
        assert "different order" in render_diff(report)


class TestSummaries:
    def test_summarize_counts_by_kind(self):
        rows = summarize(_run(("fig4",)))
        by_driver = {row["driver"]: row for row in rows}
        assert by_driver["fig4"]["spans"] == 2
        assert by_driver["fig4"]["metrics"] == 3
        assert by_driver[ENGINE_LABEL]["events"] == 2

    def test_renderers_handle_empty_input(self):
        assert render_summary([]) == "(no events)"
        assert render_rollup([]) == "(no events)"

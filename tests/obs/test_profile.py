"""Tests for hotspot aggregation."""

import pytest

from repro.obs import recorder
from repro.obs.profile import hotspots, render_hotspots
from repro.obs.recorder import RECORDER, Recorder


@pytest.fixture()
def rec():
    rec = Recorder()
    with rec.span("root"):
        with rec.span("leaf"):
            pass
        with rec.span("leaf"):
            pass
    return rec


class TestHotspots:
    def test_aggregates_by_name(self, rec):
        spots = {s.name: s for s in hotspots(rec.roots())}
        assert spots["leaf"].calls == 2
        assert spots["root"].calls == 1
        assert spots["root"].total_s >= spots["leaf"].total_s

    def test_self_time_excludes_children(self, rec):
        root = rec.roots()[0]
        spots = {s.name: s for s in hotspots(rec.roots())}
        child_total = sum(c.duration_s for c in root.children)
        assert spots["root"].self_s == pytest.approx(
            root.duration_s - child_total, abs=1e-9)

    def test_top_n_truncates(self, rec):
        assert len(hotspots(rec.roots(), top_n=1)) == 1

    def test_empty_forest(self):
        assert hotspots([]) == []


class TestRender:
    def test_render_contains_columns_and_names(self, rec):
        text = render_hotspots(hotspots(rec.roots()))
        assert "span" in text and "calls" in text and "share" in text
        assert "root" in text and "leaf" in text

    def test_render_empty(self):
        assert render_hotspots([]) == "(no spans recorded)"


class TestEndToEnd:
    def test_profile_of_instrumented_experiment(self):
        from repro.experiments import fig8, run_module

        recorder.enable()
        recorder.reset()
        try:
            run_module(fig8)
            spots = hotspots(RECORDER.roots())
        finally:
            recorder.disable()
            recorder.reset()
        names = {s.name for s in spots}
        assert "experiment.fig8" in names
        assert "fig8.worked_examples" in names


class TestProfileCli:
    def test_profile_of_degraded_failure_run(self, monkeypatch, capsys):
        """``python -m repro profile`` must render a profile — not
        crash — when the driver dies and only FAILURE_COLUMNS rows are
        recorded (ISSUE 6 satellite)."""
        from repro.cli import main
        from repro.experiments import fig8

        def explode(seed=None):
            raise RuntimeError("injected driver failure")

        monkeypatch.setattr(fig8, "run", explode)
        assert main(["profile", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "== profile:" in out
        assert "failed" in out.lower() or "error" in out.lower()

    def test_profile_of_healthy_run(self, capsys):
        from repro.cli import main

        assert main(["profile", "fig8", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "experiment.fig8" in out
        assert "hotspots" in out

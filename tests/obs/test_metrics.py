"""Tests for the recorder's metrics and the snapshot folded from them."""

import threading

import pytest

from repro.obs import recorder
from repro.obs.recorder import RECORDER, Recorder


@pytest.fixture(autouse=True)
def clean_recorder():
    recorder.disable()
    recorder.reset()
    yield
    recorder.disable()
    recorder.reset()


class TestRegistry:
    def test_counter_accumulates(self):
        rec = Recorder()
        rec.inc("a")
        rec.inc("a", 2.5)
        assert rec.snapshot()["counters"] == {"a": 3.5}
        assert [e.attrs for e in rec.events] == [
            {"op": "inc", "value": 1.0}, {"op": "inc", "value": 2.5}]

    def test_gauge_keeps_latest(self):
        rec = Recorder()
        rec.set_gauge("g", 1.0)
        rec.set_gauge("g", -4.0)
        assert rec.snapshot()["gauges"]["g"] == -4.0

    def test_histogram_summary(self):
        rec = Recorder()
        for v in (1.0, 2.0, 3.0, 10.0):
            rec.observe("h", v)
        summary = rec.snapshot()["histograms"]["h"]
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["mean"] == pytest.approx(4.0)
        assert summary["sum"] == pytest.approx(16.0)
        assert (summary["p50"], summary["p99"]) == (2.0, 10.0)

    def test_reset_clears_everything(self):
        rec = Recorder()
        rec.inc("a")
        rec.set_gauge("g", 1.0)
        rec.observe("h", 1.0)
        rec.reset()
        snap = rec.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_render_lists_all_kinds(self):
        rec = Recorder()
        rec.inc("count.things", 3)
        rec.set_gauge("gauge.level", 0.5)
        rec.observe("hist.vals", 2.0)
        assert rec.render_metrics().splitlines() == [
            "count.things  3",
            "gauge.level   0.5",
            "hist.vals     n=1 mean=2 min=2 max=2"]

    def test_render_empty(self):
        assert Recorder().render_metrics() == "(no metrics recorded)"

    def test_thread_safety_of_counters(self):
        rec = Recorder()

        def work():
            for _ in range(1000):
                rec.inc("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.snapshot()["counters"]["n"] == 4000


class TestModuleHelpers:
    def test_disabled_helpers_record_nothing(self):
        recorder.inc("a")
        recorder.set_gauge("g", 1.0)
        recorder.observe("h", 1.0)
        assert RECORDER.events == []

    def test_enabled_helpers_record_into_global_registry(self):
        recorder.enable()
        recorder.inc("a", 2)
        recorder.observe("h", 1.5)
        recorder.set_gauge("g", 9.0)
        snap = RECORDER.snapshot()
        assert snap["counters"]["a"] == 2
        assert snap["gauges"]["g"] == 9.0
        assert snap["histograms"]["h"]["count"] == 1

    def test_enable_disable_flag(self):
        recorder.enable()
        recorder.inc("kept")
        recorder.disable()
        recorder.inc("dropped")
        assert RECORDER.snapshot()["counters"] == {"kept": 1.0}

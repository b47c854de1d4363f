"""Tests for the deterministic run timeline (repro.obs.events)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import events as ev


@pytest.fixture(autouse=True)
def _clean_global_log():
    ev.disable()
    ev.EVENTS.reset()
    yield
    ev.disable()
    ev.EVENTS.reset()


class TestEvent:
    def test_to_dict_sorts_attr_keys(self):
        event = ev.Event(seq=3, driver="fig7", kind="metric",
                         name="fig7.x", attrs={"b": 1, "a": 2})
        assert list(event.to_dict()["attrs"]) == ["a", "b"]

    def test_jsonl_is_one_canonical_line(self):
        event = ev.Event(seq=0, driver="", kind="cache", name="hit",
                         attrs={})
        line = event.to_jsonl()
        assert "\n" not in line
        assert json.loads(line) == event.to_dict()


class TestEventLog:
    def test_seq_is_monotonic_and_gapless(self):
        log = ev.EventLog()
        for i in range(5):
            log.emit("metric", f"m{i}")
        assert [e.seq for e in log.events] == list(range(5))

    def test_attrs_may_reuse_kind_and_name(self):
        log = ev.EventLog()
        event = log.emit("span_start", "cache.put", kind="k", name="n")
        assert (event.kind, event.name) == ("span_start", "cache.put")
        assert event.attrs == {"kind": "k", "name": "n"}

    def test_scope_tags_and_restores(self):
        log = ev.EventLog()
        log.emit("span_start", "outer")
        with log.scope("fig5"):
            log.emit("metric", "fig5.x")
            with log.scope("fig5"):  # reentrant, same driver
                log.emit("metric", "fig5.y")
        log.emit("span_end", "outer")
        drivers = [e.driver for e in log.events]
        assert drivers == [ev.ENGINE_SCOPE, "fig5", "fig5",
                           ev.ENGINE_SCOPE]

    def test_reset_clears_events_and_scope(self):
        log = ev.EventLog()
        with log.scope("fig4"):
            log.emit("metric", "fig4.x")
            log.reset()
        # reset dropped the scope even though the context was active
        log.emit("metric", "after")
        assert [e.driver for e in log.events] == [ev.ENGINE_SCOPE]

    def test_jsonl_round_trip_and_trailing_newline(self, tmp_path):
        log = ev.EventLog()
        log.emit("fault", "link.drop", domain="link")
        path = log.write_jsonl(tmp_path / "deep" / "events.jsonl")
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert [json.loads(line) for line in text.splitlines()] \
            == [event.to_dict() for event in log.events]
        assert ev.EventLog().to_jsonl() == ""

    def test_thread_safety_no_lost_or_duplicate_seq(self):
        log = ev.EventLog()

        def hammer():
            for _ in range(200):
                log.emit("metric", "m")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in log.events]
        assert seqs == list(range(800))


class TestModuleLevelGate:
    def test_emit_is_noop_until_enabled(self):
        ev.emit("metric", "dropped")
        assert len(ev.EVENTS) == 0
        ev.enable()
        ev.emit("metric", "kept")
        ev.disable()
        ev.emit("metric", "dropped-again")
        assert [e.name for e in ev.EVENTS.events] == ["kept"]

    def test_driver_scope_passthrough_when_disabled(self):
        with ev.driver_scope("fig8"):
            assert ev.current_driver() == ev.ENGINE_SCOPE
        ev.enable()
        with ev.driver_scope("fig8"):
            assert ev.current_driver() == "fig8"
        assert ev.current_driver() == ev.ENGINE_SCOPE

    def test_fixed_stream_is_byte_identical(self):
        def one_run() -> str:
            ev.EVENTS.reset()
            ev.enable()
            with ev.driver_scope("table1"):
                ev.emit("span_start", "experiment.table1")
                ev.emit("metric", "table1.n_designs", op="gauge",
                        value=14.0)
                ev.emit("span_end", "experiment.table1")
            ev.disable()
            return ev.EVENTS.to_jsonl()

        assert one_run() == one_run()

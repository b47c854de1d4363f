"""Golden fault-log regression: the chaos drills replay byte-for-byte.

The fixture under ``golden/`` was generated with::

    injector = FaultInjector(default_chaos_plan(seed=7))
    run_chaos_drills(injector, <scratch dir>)
    injector.write_log("tests/fault/golden/fault_log.json")

Fault logs carry no timestamps, hostnames, or temp paths, so the exact
bytes must reproduce on any machine.  If an intentional change to the
fault layer alters the stream, regenerate the fixture with the snippet
above and review the diff like any other golden update.

The telemetry the drills record (the injector's ``fault`` events and
``fault.*`` counters, the cache store's spans and counters) is pinned
too: by its per-kind event counts and the sha256 of its
``events.jsonl`` text.  A change that moves those numbers must say why.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from repro.fault.drills import run_chaos_drills
from repro.fault.injector import FaultInjector
from repro.fault.plan import default_chaos_plan
from repro.obs import recorder

GOLDEN = Path(__file__).parent / "golden" / "fault_log.json"

#: Per-kind event counts and sha256 of the drills' ``events.jsonl``.
TIMELINE_KINDS = {"fault": 291, "metric": 571, "span_start": 54,
                  "span_end": 54}
TIMELINE_SHA256 = ("7181473a9853e76effa6e2db5d8ea27d"
                   "d4f40ed14e5c5cf5921afab54fb0d3cd")


def _run_drills(root):
    injector = FaultInjector(default_chaos_plan(seed=7))
    report = run_chaos_drills(injector, root)
    return injector, report


def test_drill_log_is_independent_of_the_scratch_path(tmp_path):
    first, _ = _run_drills(tmp_path / "one")
    second, _ = _run_drills(tmp_path / "two deeply" / "nested dir")
    assert first.to_json() == second.to_json()


def test_drill_log_matches_golden_fixture(tmp_path):
    injector, _ = _run_drills(tmp_path)
    assert injector.to_json() == GOLDEN.read_text(encoding="utf-8")


def test_drill_report_accounting(tmp_path):
    injector, report = _run_drills(tmp_path)
    link, cache = report["link"], report["cache"]
    assert link["samples_recovered"] < link["samples_sent"]
    assert link["loss"]["received"] < 128  # drops shrank the stream
    assert link["arq"]["delivered"] + link["arq"]["dropped"] == 128
    assert cache["corrupted"] > 0
    assert cache["healed"] == cache["corrupted"]
    assert cache["quarantined"] == cache["corrupted"]
    assert cache["intact_hits"] == cache["entries"] - cache["corrupted"]
    counters = json.loads(injector.to_json())["counters"]
    assert counters == injector.counters
    assert counters["injected"] > 0 and counters["recovered"] > 0


def test_drill_timeline_matches_pinned_digest(tmp_path):
    recorder.reset()
    recorder.enable()
    try:
        _run_drills(tmp_path)
        text = recorder.RECORDER.to_jsonl()
    finally:
        recorder.disable()
        recorder.reset()
    kinds = Counter(json.loads(line)["kind"] for line in text.splitlines())
    assert kinds == TIMELINE_KINDS
    assert hashlib.sha256(text.encode()).hexdigest() == TIMELINE_SHA256

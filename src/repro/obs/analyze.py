"""Trace analytics over the event timeline (``python -m repro obs``).

Consumes the ``events.jsonl`` files written by ``--events`` runs
(:mod:`repro.obs.recorder`) and answers the questions a run log should:
where did the work go (:func:`rollup`), what was the longest dependency
chain (:func:`critical_path`), and what changed between two runs
(:func:`diff_runs`).

Everything here is deterministic by construction: analytics are computed
from event *structure* (span nesting, event counts), never from wall
clock, so for a fixed seed every report is byte-identical across
repetitions — the property that makes run-vs-run diffing (cold vs warm
cache, serial vs ``fleet --jobs 4``, baseline vs fault plan)
trustworthy.  An
optional timed mode (:func:`critical_path_spans`) reads recorded span
durations from a ``trace.json`` instead, trading byte-stability for
wall-clock attribution.

Engine-scope events (driver tag ``""``) are excluded from diffs by
default.  Serial ``evaluate``, ``evaluate --cache`` and ``fleet``
timelines have none; the chaos drills (``python -m repro chaos``) emit
their link and cache fault events, and the cache spans and metrics of
the cache drill, outside any driver, and including them would report
deltas between runs whose experiment work is identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.recorder import ENGINE_SCOPE

__all__ = [
    "build_span_tree",
    "critical_path",
    "critical_path_spans",
    "diff_runs",
    "filter_events",
    "load_events",
    "render_critical_path",
    "render_diff",
    "render_rollup",
    "render_summary",
    "rollup",
    "split_by_driver",
    "summarize",
]

#: Label used for engine-scope events in human-readable reports.
ENGINE_LABEL = "<engine>"


def load_events(path: Path | str) -> list[dict[str, Any]]:
    """Parse one ``events.jsonl`` file into event dicts (seq order)."""
    path = Path(path)
    events = []
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{number}: not valid JSONL: {error}") from None
    return events


def split_by_driver(
        events: Iterable[dict[str, Any]]) -> dict[str, list[dict[str, Any]]]:
    """Group events by driver tag, preserving first-appearance order of
    drivers and seq order within each."""
    streams: dict[str, list[dict[str, Any]]] = {}
    for event in events:
        streams.setdefault(event.get("driver", ENGINE_SCOPE),
                           []).append(event)
    return streams


def filter_events(events: Iterable[dict[str, Any]],
                  driver: str | None = None,
                  kind: str | None = None,
                  name: str | None = None) -> list[dict[str, Any]]:
    """Select events by driver tag, kind, and/or name substring."""
    selected = []
    for event in events:
        if driver is not None and event.get("driver") != driver:
            continue
        if kind is not None and event.get("kind") != kind:
            continue
        if name is not None and name not in event.get("name", ""):
            continue
        selected.append(event)
    return selected


# -- span-tree reconstruction ---------------------------------------------

def build_span_tree(stream: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Rebuild the span nesting of one driver's event stream.

    Returns root nodes ``{name, children, self_events, total_events}``
    where ``self_events`` counts non-span events recorded directly under
    the span and ``total_events`` includes everything nested below it.
    Non-span events outside any open span are dropped (they belong to no
    stage).  Unmatched ``span_end`` events are tolerated — a stream
    sliced by driver tag can only lose *engine* spans, but defensiveness
    is cheap.
    """
    roots: list[dict[str, Any]] = []
    stack: list[dict[str, Any]] = []
    for event in stream:
        kind = event.get("kind")
        if kind == "span_start":
            node = {"name": event["name"], "children": [],
                    "self_events": 0, "total_events": 0}
            (stack[-1]["children"] if stack else roots).append(node)
            stack.append(node)
        elif kind == "span_end":
            if stack:
                stack.pop()
        elif stack:
            stack[-1]["self_events"] += 1
    for root in roots:
        _fill_totals(root)
    return roots


def _fill_totals(node: dict[str, Any]) -> int:
    """Post-order total: own events plus everything nested (each child
    span also counts as one unit of work, so empty spans still weigh)."""
    total = node["self_events"]
    for child in node["children"]:
        total += 1 + _fill_totals(child)
    node["total_events"] = total
    return total


def rollup(events: Iterable[dict[str, Any]],
           include_engine: bool = True) -> list[dict[str, Any]]:
    """Per-stage self/total rollup across the whole timeline.

    Returns one row per ``(driver, span name)``: call count, total
    events under the span, and self events (total minus nested stages)
    — the structural analogue of a profiler's total/self time, and
    byte-stable for a fixed seed.
    """
    rows: list[dict[str, Any]] = []
    for driver, stream in split_by_driver(events).items():
        if driver == ENGINE_SCOPE and not include_engine:
            continue
        stats: dict[str, dict[str, int]] = {}

        def visit(node: dict[str, Any]) -> None:
            entry = stats.setdefault(node["name"],
                                     {"calls": 0, "total": 0, "self": 0})
            entry["calls"] += 1
            entry["total"] += node["total_events"]
            entry["self"] += node["self_events"]
            for child in node["children"]:
                visit(child)

        for root in build_span_tree(stream):
            visit(root)
        for name, entry in stats.items():
            rows.append({"driver": driver or ENGINE_LABEL, "span": name,
                         "calls": entry["calls"],
                         "total_events": entry["total"],
                         "self_events": entry["self"]})
    rows.sort(key=lambda row: (-row["total_events"], row["driver"],
                               row["span"]))
    return rows


# -- critical path ---------------------------------------------------------

def critical_path(events: Iterable[dict[str, Any]],
                  driver: str | None = None) -> list[dict[str, Any]]:
    """The heaviest span chain of the timeline, by structural weight.

    Starting from the heaviest root span (of the requested driver, or of
    the heaviest driver when omitted), descend into the heaviest child at
    every level; ties break toward the earlier span, so the path is
    deterministic.  Each step reports its driver, span name, total and
    self event counts, and its share of the run's driver-scoped events.
    """
    events = list(events)
    streams = split_by_driver(events)
    candidates: list[tuple[str, dict[str, Any]]] = []
    for tag, stream in streams.items():
        if driver is not None and tag != driver:
            continue
        if driver is None and tag == ENGINE_SCOPE:
            continue
        for root in build_span_tree(stream):
            candidates.append((tag, root))
    if not candidates:
        return []
    run_total = sum(1 + root["total_events"] for _, root in candidates)
    tag, node = max(candidates,
                    key=lambda item: item[1]["total_events"])
    path = []
    while True:
        share = (100.0 * (1 + node["total_events"]) / run_total
                 if run_total else 0.0)
        path.append({"driver": tag or ENGINE_LABEL, "span": node["name"],
                     "total_events": node["total_events"],
                     "self_events": node["self_events"],
                     "share_pct": round(share, 2)})
        if not node["children"]:
            return path
        node = max(node["children"],
                   key=lambda child: child["total_events"])


def critical_path_spans(
        span_records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Timed critical path over recorded ``trace.json`` spans.

    The wall-clock counterpart of :func:`critical_path`: descends into
    the child with the largest recorded duration.  Durations vary run to
    run, so this mode is *not* byte-stable — use it for attribution, not
    regression baselines.
    """
    if not span_records:
        return []

    def duration(record: dict[str, Any]) -> float:
        return float(record.get("duration_s") or 0.0)

    node = max(span_records, key=duration)
    total = sum(duration(record) for record in span_records)
    path = []
    while True:
        own = duration(node)
        children = node.get("children") or []
        self_s = own - sum(duration(child) for child in children)
        path.append({"span": node["name"], "total_s": round(own, 6),
                     "self_s": round(max(self_s, 0.0), 6),
                     "share_pct": round(100.0 * own / total, 2)
                     if total else 0.0})
        if not children:
            return path
        node = max(children, key=duration)


# -- run-vs-run diff -------------------------------------------------------

def _signature(event: dict[str, Any]) -> str:
    """Canonical identity of one event, independent of its absolute
    timeline position (engine-scope events interleaved differently
    shift every seq)."""
    return json.dumps({"kind": event.get("kind"),
                       "name": event.get("name"),
                       "attrs": event.get("attrs", {})}, sort_keys=True,
                      default=str)


def diff_runs(events_a: Iterable[dict[str, Any]],
              events_b: Iterable[dict[str, Any]],
              include_engine: bool = False) -> dict[str, Any]:
    """Structural diff of two runs' timelines, grouped by driver.

    For each driver the two event sequences are compared
    position-independently (signatures of kind/name/attrs): signatures
    whose multiplicity changed are reported as added/removed, and a
    driver whose multiset matches but whose order differs is flagged
    ``reordered``.  Engine-scope events (the chaos drills' fault and
    cache events) are excluded unless ``include_engine``.

    Returns a JSON-able report; ``equal`` is True exactly when no driver
    shows any delta.
    """
    streams_a = split_by_driver(events_a)
    streams_b = split_by_driver(events_b)
    drivers = list(streams_a)
    drivers.extend(tag for tag in streams_b if tag not in streams_a)
    report: dict[str, Any] = {"drivers": {}, "n_deltas": 0}
    for tag in drivers:
        if tag == ENGINE_SCOPE and not include_engine:
            continue
        seq_a = [_signature(event) for event in streams_a.get(tag, [])]
        seq_b = [_signature(event) for event in streams_b.get(tag, [])]
        if seq_a == seq_b:
            continue
        counts: dict[str, int] = {}
        for signature in seq_a:
            counts[signature] = counts.get(signature, 0) - 1
        for signature in seq_b:
            counts[signature] = counts.get(signature, 0) + 1
        added = sorted(signature for signature, delta in counts.items()
                       for _ in range(max(delta, 0)))
        removed = sorted(signature for signature, delta in counts.items()
                         for _ in range(max(-delta, 0)))
        entry = {"added": [json.loads(signature) for signature in added],
                 "removed": [json.loads(signature)
                             for signature in removed],
                 "reordered": not added and not removed}
        report["drivers"][tag or ENGINE_LABEL] = entry
        report["n_deltas"] += len(added) + len(removed) + int(
            entry["reordered"])
    report["equal"] = report["n_deltas"] == 0
    return report


# -- summaries and reporters ----------------------------------------------

def summarize(events: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per-driver event census: one row per driver with counts by kind."""
    rows = []
    for tag, stream in split_by_driver(events).items():
        counts: dict[str, int] = {}
        for event in stream:
            kind = event.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
        rows.append({"driver": tag or ENGINE_LABEL, "events": len(stream),
                     "spans": counts.get("span_start", 0),
                     "metrics": counts.get("metric", 0),
                     "faults": counts.get("fault", 0),
                     "cache": counts.get("cache", 0)})
    return rows


def _format_rows(rows: list[dict[str, Any]]) -> str:
    from repro.experiments.report import format_table
    if not rows:
        return "(no events)"
    return format_table(rows, list(rows[0]))


def render_summary(events: Iterable[dict[str, Any]]) -> str:
    """Text report of :func:`summarize`."""
    return _format_rows(summarize(events))


def render_rollup(events: Iterable[dict[str, Any]],
                  include_engine: bool = True,
                  top_n: int | None = None) -> str:
    """Text report of :func:`rollup` (heaviest stages first)."""
    rows = rollup(events, include_engine=include_engine)
    if top_n is not None:
        rows = rows[:top_n]
    return _format_rows(rows)


def render_critical_path(path: list[dict[str, Any]]) -> str:
    """Text report of a critical path, one indented step per level."""
    if not path:
        return "(no spans recorded)"
    lines = []
    for depth, step in enumerate(path):
        label = step.get("span", "?")
        if "total_events" in step:
            detail = (f"total={step['total_events']} "
                      f"self={step['self_events']} "
                      f"share={step['share_pct']:.1f}%")
            if depth == 0:
                label = f"{step['driver']}:{label}"
        else:
            detail = (f"total={step['total_s']:.4f}s "
                      f"self={step['self_s']:.4f}s "
                      f"share={step['share_pct']:.1f}%")
        lines.append(f"{'  ' * depth}{label}  [{detail}]")
    return "\n".join(lines)


def render_diff(report: dict[str, Any]) -> str:
    """Text report of :func:`diff_runs`."""
    if report["equal"]:
        return "runs are equivalent: 0 deltas"
    lines = [f"runs differ: {report['n_deltas']} delta(s)"]
    for tag, entry in report["drivers"].items():
        if entry["reordered"]:
            lines.append(f"  {tag}: same events, different order")
            continue
        lines.append(f"  {tag}: +{len(entry['added'])} "
                     f"-{len(entry['removed'])}")
        for event in entry["added"][:5]:
            lines.append(f"    + {event['kind']} {event['name']} "
                         f"{json.dumps(event['attrs'], sort_keys=True)}")
        for event in entry["removed"][:5]:
            lines.append(f"    - {event['kind']} {event['name']} "
                         f"{json.dumps(event['attrs'], sort_keys=True)}")
        hidden = (max(len(entry["added"]) - 5, 0)
                  + max(len(entry["removed"]) - 5, 0))
        if hidden:
            lines.append(f"    ... {hidden} more")
    return "\n".join(lines)

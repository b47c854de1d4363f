"""Telemetry recorder: spans, metrics and the run timeline in one list.

Usage::

    from repro.obs.recorder import set_gauge, span

    with span("fig5.sweep", socs=8) as sp:
        ...
        sp.set(rows=len(rows))
    set_gauge("fig5.max_channels", 1024)

Every call appends to one ordered event list: a span adds a
``span_start`` and a ``span_end`` event; :func:`inc`, :func:`set_gauge`
and :func:`observe` a ``metric`` event; the fault injector and the
cache their ``fault`` and ``cache`` events through :func:`emit`.  Every
view reads that list: the ``events.jsonl`` timeline, the span forest
behind ``trace.json`` and ``profile`` (each span keeps its wall-clock
duration and peak-RSS delta on its own :class:`Span` record, which its
``span_end`` event points to but never serializes), and the
``--metrics`` snapshot folded from the ``metric`` events.

Events are ordered by a gapless sequence number and carry no clock,
PID or memory number, so a fixed seed gives a byte-identical timeline.
Each carries the tag of the enclosing :func:`driver_scope`
(:data:`ENGINE_SCOPE` outside any driver).  Only drivers and
infrastructure record; science imports nothing from :mod:`repro.obs`.

Recording is off by default; the module-level helpers then return after
one flag check (:func:`span` returns a cached no-op), so instrumented
code pays almost nothing (``tests/obs/test_overhead.py``).
:class:`Recorder` methods always record; :data:`RECORDER` backs the
helpers, and tests make their own instances.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.obs.manifest import peak_rss_bytes
from repro.units import to_ms, to_us

__all__ = ["ENGINE_SCOPE", "Event", "RECORDER", "Recorder", "Span",
           "disable", "driver_scope", "emit", "enable", "inc", "observe",
           "percentile", "reset", "set_gauge", "span"]

#: Driver tag of events emitted outside any experiment driver.
ENGINE_SCOPE = ""

#: Percentiles reported by every histogram summary.
SUMMARY_PERCENTILES = (50, 95, 99)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample.

    The nearest-rank method returns an actual observed value (no
    interpolation), so summaries stay exact and deterministic for
    integer-valued metrics.

    Raises:
        ValueError: on an empty sample or a percentile outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    if pct == 0.0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class Span:
    """One timed region: name, attributes, duration, and children
    (call :meth:`set` inside the ``with`` block to add attributes)."""

    __slots__ = ("name", "attrs", "start_s", "end_s", "children",
                 "parent", "thread_name", "rss_delta_bytes",
                 "_rss_start", "_recorder")

    def __init__(self, name: str, attrs: dict[str, Any],
                 recorder: "Recorder") -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0
        self.end_s = 0.0
        self.children: list[Span] = []
        self.parent: Span | None = None
        self.thread_name = threading.current_thread().name
        self.rss_delta_bytes: int | None = None
        self._rss_start: int | None = None
        self._recorder = recorder

    @property
    def duration_s(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        return max(0.0, self.end_s - self.start_s)

    @property
    def self_time_s(self) -> float:
        """Duration not attributed to child spans."""
        return max(0.0, self.duration_s
                   - sum(c.duration_s for c in self.children))

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._recorder._open(self)
        self._rss_start = peak_rss_bytes()
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.end_s = time.perf_counter()
        rss_end = peak_rss_bytes()
        if rss_end is not None and self._rss_start is not None:
            # Peak RSS is monotonic: a positive delta means this span
            # pushed the process to a new high-water mark.
            self.rss_delta_bytes = rss_end - self._rss_start
        self._recorder._close(self)
        return False

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation of this span and its subtree."""
        record: dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration_s,
            "self_time_s": self.self_time_s,
            "thread": self.thread_name,
        }
        if self.rss_delta_bytes:
            record["rss_delta_bytes"] = self.rss_delta_bytes
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.children:
            record["children"] = [c.to_dict() for c in self.children]
        return record

    def walk(self) -> Iterable["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


class _NoopSpan:
    """Shared do-nothing stand-in returned while recording is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


@dataclass(frozen=True)
class Event:
    """One timeline entry.

    ``seq`` is its 0-based, gapless position; ``driver`` the experiment
    it belongs to; ``kind`` one of "span_start", "span_end", "metric",
    "fault", "cache"; ``name`` the span, metric, fault ``domain.kind``
    or cache operation; ``attrs`` JSON-able, deterministic specifics
    (never clock or host values).  A ``span_end`` event also points to
    the closed span's timing record, which is never serialized.
    """

    seq: int
    driver: str
    kind: str
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    span: Span | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation (attr keys sorted for stability)."""
        return {"seq": self.seq, "driver": self.driver, "kind": self.kind,
                "name": self.name,
                "attrs": dict(sorted(self.attrs.items()))}

    def to_jsonl(self) -> str:
        """The event's canonical single-line JSON form."""
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


class Recorder:
    """Thread-safe, append-only event list with driver tagging."""

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._driver = ENGINE_SCOPE

    # -- recording --------------------------------------------------------

    def emit(self, kind: str, name: str, /, **attrs: Any) -> Event:
        """Append one event under the current driver scope.

        ``kind`` and ``name`` are positional-only so attrs may reuse
        those words.
        """
        return self._append(kind, name, attrs)

    def _append(self, kind: str, name: str, attrs: dict[str, Any],
                span: Span | None = None) -> Event:
        with self._lock:
            event = Event(seq=len(self._events), driver=self._driver,
                          kind=kind, name=name, attrs=attrs, span=span)
            self._events.append(event)
        return event

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span (use as ``with recorder.span("x"): ...``)."""
        return Span(name, attrs, self)

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name``."""
        self.emit("metric", name, op="inc", value=value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self.emit("metric", name, op="gauge", value=value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        self.emit("metric", name, op="observe", value=value)

    @contextmanager
    def scope(self, driver: str) -> Iterator[None]:
        """Tag events emitted inside the block with ``driver``.

        Reentrant: nested scopes restore the enclosing tag on exit (the
        cached runner wraps :func:`repro.experiments.run_module`, which
        scopes the same driver again).
        """
        previous = self._driver
        self._driver = driver
        try:
            yield
        finally:
            self._driver = previous

    def reset(self) -> None:
        """Drop every event and open span, and leave driver scope."""
        with self._lock:
            self._events.clear()
            self._driver = ENGINE_SCOPE
        self._local = threading.local()

    # -- span lifecycle (called by Span.__enter__/__exit__) ---------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, node: Span) -> None:
        stack = self._stack()
        node.parent = stack[-1] if stack else None
        stack.append(node)
        self.emit("span_start", node.name, **node.attrs)

    def _close(self, node: Span) -> None:
        self._append("span_end", node.name, dict(node.attrs), node)
        stack = self._stack()
        # Tolerate out-of-order exits (e.g. a generator finalized late):
        # drop everything above the span being closed.
        while stack and stack.pop() is not node:
            pass
        if node.parent is not None:
            node.parent.children.append(node)

    # -- views ------------------------------------------------------------

    @property
    def events(self) -> list[Event]:
        """The recorded timeline, in sequence order."""
        with self._lock:
            return list(self._events)

    def to_jsonl(self) -> str:
        """Canonical JSONL text (one event per line, trailing newline)."""
        lines = [event.to_jsonl() for event in self.events]
        return "\n".join(lines) + "\n" if lines else ""

    def write_jsonl(self, path: Path | str) -> Path:
        """Write the timeline to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    def roots(self) -> list[Span]:
        """Closed top-level spans, in completion order."""
        return [event.span for event in self.events
                if event.span is not None and event.span.parent is None]

    def to_dicts(self) -> list[dict[str, Any]]:
        """The span forest as JSON-able dicts (``trace.json``)."""
        return [root.to_dict() for root in self.roots()]

    def render_tree(self) -> str:
        """Render the span forest as an indented text tree with timings."""
        lines: list[str] = []
        for root in self.roots():
            _render(root, "", True, True, lines)
        return "\n".join(lines) if lines else "(no spans recorded)"

    def snapshot(self) -> dict[str, Any]:
        """Counters, gauges and histogram summaries folded from the
        ``metric`` events, as one JSON-able dict."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        samples: dict[str, list[float]] = {}
        for event in self.events:
            if event.kind != "metric":
                continue
            name, value = event.name, event.attrs["value"]
            if event.attrs["op"] == "inc":
                counters[name] = counters.get(name, 0.0) + value
            elif event.attrs["op"] == "gauge":
                gauges[name] = value
            else:
                samples.setdefault(name, []).append(value)
        return {"counters": dict(sorted(counters.items())),
                "gauges": dict(sorted(gauges.items())),
                "histograms": {name: _summary(values) for name, values
                               in sorted(samples.items())}}

    def render_metrics(self) -> str:
        """The snapshot rendered as aligned ``name  value`` lines."""
        snap = self.snapshot()
        entries = [(name, _fmt_number(value)) for name, value
                   in [*snap["counters"].items(), *snap["gauges"].items()]]
        entries += [(name, f"n={s['count']} "
                           f"mean={_fmt_number(s['mean'])} "
                           f"min={_fmt_number(s['min'])} "
                           f"max={_fmt_number(s['max'])}")
                    for name, s in snap["histograms"].items()]
        if not entries:
            return "(no metrics recorded)"
        width = max(len(name) for name, _ in entries)
        return "\n".join(f"{name.ljust(width)}  {text}"
                         for name, text in entries)


def _summary(values: list[float]) -> dict[str, float]:
    total = sum(values)
    summary = {"count": len(values), "sum": total,
               "mean": total / len(values), "min": min(values),
               "max": max(values)}
    for pct in SUMMARY_PERCENTILES:
        summary[f"p{pct}"] = percentile(values, pct)
    return summary


def _render(node: Span, prefix: str, is_last: bool, is_root: bool,
            lines: list[str]) -> None:
    if is_root:
        head, child_prefix = "", ""
    else:
        head = prefix + ("`- " if is_last else "|- ")
        child_prefix = prefix + ("   " if is_last else "|  ")
    attrs = ""
    if node.attrs:
        inner = ", ".join(f"{k}={v}" for k, v in node.attrs.items())
        attrs = f"  ({inner})"
    lines.append(f"{head}{node.name}  {_fmt_duration(node.duration_s)}"
                 f"{attrs}")
    for i, child in enumerate(node.children):
        _render(child, child_prefix, i == len(node.children) - 1, False,
                lines)


def _fmt_duration(seconds: float) -> str:
    """Human-scale duration: '3.21 s', '14.5 ms', or '87.0 us'."""
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{to_ms(seconds):.1f} ms"
    return f"{to_us(seconds):.1f} us"


def _fmt_number(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


#: The process-wide recorder behind the module-level helpers.
RECORDER = Recorder()

_enabled = False


def enable() -> None:
    """Start recording process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Stop recording; the module-level helpers become no-ops again."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop everything :data:`RECORDER` holds."""
    RECORDER.reset()


def span(name: str, **attrs: Any):
    """Open a span on :data:`RECORDER` (no-op while recording is off).

    Returns a context manager either way; the disabled path returns a
    cached sentinel whose ``set`` / ``__enter__`` / ``__exit__`` do
    nothing.
    """
    if not _enabled:
        return _NOOP
    return Span(name, attrs, RECORDER)


def inc(name: str, value: float = 1.0) -> None:
    """Increment a counter; no-op while recording is off."""
    if _enabled:
        RECORDER.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge; no-op while recording is off."""
    if _enabled:
        RECORDER.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample; no-op while recording is off."""
    if _enabled:
        RECORDER.observe(name, value)


def emit(kind: str, name: str, /, **attrs: Any) -> None:
    """Record one event; no-op while recording is off."""
    if _enabled:
        RECORDER.emit(kind, name, **attrs)


@contextmanager
def driver_scope(driver: str) -> Iterator[None]:
    """Tag events emitted inside the block with ``driver`` (reentrant;
    a pass-through while recording is off)."""
    if not _enabled:
        yield
        return
    with RECORDER.scope(driver):
        yield

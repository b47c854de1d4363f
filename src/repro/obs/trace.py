"""Span tracer: nested wall-clock timing with attributes.

Usage — context manager (the common form)::

    from repro.obs import span

    with span("fig5.sweep", socs=8) as sp:
        ...
        sp.set(rows=len(rows))

or decorator::

    @traced("link.measure_ber")
    def measure_ber(...): ...

Spans nest per thread (each thread keeps its own open-span stack; roots
from every thread land in one shared, locked list), and the recorded
forest exports as JSON-able dicts (:meth:`Tracer.to_dicts`) or a rendered
text tree (:meth:`Tracer.render_tree`).

Tracing is disabled by default.  When disabled, :func:`span` returns a
cached no-op context manager — one flag check and zero allocations — so
instrumented hot paths cost essentially nothing (see
``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

from repro.obs.events import emit as _emit_event
from repro.obs.events import events_enabled as _events_enabled
from repro.units import to_ms, to_us
from typing import Any, Callable, Iterable

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None


def _peak_rss_bytes() -> int | None:
    """Current peak RSS (bytes), or None where unavailable."""
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return peak if sys.platform == "darwin" else peak * 1024

__all__ = ["Span", "Tracer", "TRACER", "span", "span_from_dict", "traced",
           "enable", "disable", "tracing_enabled"]


class Span:
    """One timed region: name, attributes, duration, and children.

    Spans are created by :func:`span` / :meth:`Tracer.start`; user code
    only reads them (after the run) or calls :meth:`set` inside the
    ``with`` block to attach attributes.
    """

    __slots__ = ("name", "attrs", "start_s", "end_s", "children",
                 "thread_name", "rss_delta_bytes", "_rss_start",
                 "_tracer")

    def __init__(self, name: str, attrs: dict[str, Any],
                 tracer: "Tracer") -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0
        self.end_s = 0.0
        self.children: list[Span] = []
        self.thread_name = threading.current_thread().name
        self.rss_delta_bytes: int | None = None
        self._rss_start: int | None = None
        self._tracer = tracer

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
        self._tracer._push(self)
        if _events_enabled():
            _emit_event("span_start", self.name, **self.attrs)
        self._rss_start = _peak_rss_bytes()
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.end_s = time.perf_counter()
        rss_end = _peak_rss_bytes()
        if rss_end is not None and self._rss_start is not None:
            # Peak RSS is monotonic: a positive delta means this span
            # pushed the process to a new high-water mark.
            self.rss_delta_bytes = rss_end - self._rss_start
        if _events_enabled():
            _emit_event("span_end", self.name, **self.attrs)
        self._tracer._pop(self)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {to_ms(self.duration_s):.3f} ms, "
                f"{len(self.children)} children)")


class _NoopSpan:
    """Shared do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class Tracer:
    """Thread-safe collector of span forests.

    Each thread nests spans on its own stack; completed root spans are
    appended to a shared list under a lock.  One process-wide instance
    (:data:`TRACER`) backs the module-level :func:`span` helper; separate
    instances can be created for isolated collection (tests do this).
    """

    def __init__(self) -> None:
        self._roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle (called by Span.__enter__/__exit__) ---------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, node: Span) -> None:
        self._stack().append(node)

    def _pop(self, node: Span) -> None:
        stack = self._stack()
        # Tolerate out-of-order exits (e.g. a generator finalized late):
        # drop everything above the span being closed.
        while stack:
            top = stack.pop()
            if top is node:
                break
        if stack:
            stack[-1].children.append(node)
        else:
            with self._lock:
                self._roots.append(node)

    # -- public API -------------------------------------------------------

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a new span (use as ``with tracer.start("x"): ...``)."""
        return Span(name, attrs, self)

    def reset(self) -> None:
        """Discard all completed and open spans."""
        with self._lock:
            self._roots.clear()
        self._local = threading.local()

    def adopt(self, roots: Iterable[Span]) -> None:
        """Append externally recorded root spans to this tracer's forest.

        Used by the parallel experiment engine to merge span trees
        rebuilt (via :func:`span_from_dict`) from worker-process exports
        into the parent trace.
        """
        with self._lock:
            self._roots.extend(roots)

    @property
    def roots(self) -> list[Span]:
        """Completed top-level spans, in completion order."""
        with self._lock:
            return list(self._roots)

    def span_count(self) -> int:
        """Total number of recorded spans across all roots."""
        return sum(1 for root in self.roots for _ in root.walk())

    def to_dicts(self) -> list[dict[str, Any]]:
        """The whole recorded forest as JSON-able dicts."""
        return [root.to_dict() for root in self.roots]

    def to_json(self, indent: int | None = 2) -> str:
        """The whole recorded forest serialized to JSON."""
        return json.dumps(self.to_dicts(), indent=indent, default=str)

    def render_tree(self) -> str:
        """Render the span forest as an indented text tree with timings."""
        lines: list[str] = []
        for root in self.roots:
            self._render(root, prefix="", is_last=True, is_root=True,
                         lines=lines)
        return "\n".join(lines) if lines else "(no spans recorded)"

    def _render(self, node: Span, prefix: str, is_last: bool,
                is_root: bool, lines: list[str]) -> None:
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
            self._render(child, child_prefix,
                         is_last=(i == len(node.children) - 1),
                         is_root=False, lines=lines)


def _fmt_duration(seconds: float) -> str:
    """Human-scale duration: '3.21 s', '14.5 ms', or '87.0 us'."""
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{to_ms(seconds):.1f} ms"
    return f"{to_us(seconds):.1f} us"


#: The process-wide tracer behind :func:`span`.
TRACER = Tracer()

_enabled = False


def enable() -> None:
    """Start recording spans process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Stop recording; :func:`span` reverts to the no-op fast path."""
    global _enabled
    _enabled = False


def tracing_enabled() -> bool:
    """True while spans are being recorded."""
    return _enabled


def span(name: str, **attrs: Any):
    """Open a span on the global tracer (no-op while tracing is disabled).

    Returns a context manager either way; the disabled path returns a
    cached sentinel whose ``set`` / ``__enter__`` / ``__exit__`` do
    nothing.
    """
    if not _enabled:
        return _NOOP
    return Span(name, attrs, TRACER)


def span_from_dict(record: dict[str, Any],
                   tracer: Tracer | None = None) -> Span:
    """Rebuild a :class:`Span` subtree from its :meth:`Span.to_dict` form.

    The inverse of the JSON export, up to the information the export
    keeps: absolute start/end times are not preserved (only durations),
    so rebuilt spans report the right ``duration_s`` / ``self_time_s``
    but are not aligned on the original clock.  Used to adopt spans
    recorded in worker processes into the parent tracer
    (:meth:`Tracer.adopt`).
    """
    node = Span(record["name"], dict(record.get("attrs", {})),
                tracer or TRACER)
    node.start_s = 0.0
    node.end_s = float(record.get("duration_s", 0.0))
    node.thread_name = record.get("thread", node.thread_name)
    node.rss_delta_bytes = record.get("rss_delta_bytes")
    node.children = [span_from_dict(child, tracer)
                     for child in record.get("children", [])]
    return node


def traced(name: str | None = None) -> Callable:
    """Decorator form of :func:`span`; span name defaults to the function's
    qualified name."""
    def decorate(func: Callable) -> Callable:
        label = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return func(*args, **kwargs)
            with Span(label, {}, TRACER):
                return func(*args, **kwargs)

        return wrapper
    return decorate

"""Metrics registry: named counters, gauges, and histograms.

One process-wide :data:`REGISTRY` collects what the experiment drivers
and the infrastructure record — ``fig7.multiplier_at_100pct``,
``experiments.runs``, ``cache.hits``, ... — with
:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.reset`
semantics so a CLI run (or a benchmark session) can scope its own
window of observation.  The science packages record nothing.

The module-level helpers :func:`inc`, :func:`set_gauge`, and
:func:`observe` are the instrumentation surface: they check one module
flag and return immediately while metrics are disabled (the default),
so the instrumented code pays essentially nothing until someone asks
for numbers.  Direct method calls on a registry
instance always record, independent of the flag — that is the path the
benchmark harness uses to build its manifest.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from repro.obs.events import emit as _emit_event
from repro.obs.events import events_enabled as _events_enabled

__all__ = ["MetricsRegistry", "REGISTRY", "inc", "set_gauge", "observe",
           "enable", "disable", "metrics_enabled", "percentile"]

#: Cap on raw values retained per histogram (protects long runs).
_HISTOGRAM_CAP = 4096

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


class _Histogram:
    """Streaming summary plus a bounded sample of raw values."""

    __slots__ = ("count", "total", "min", "max", "values")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self.values) < _HISTOGRAM_CAP:
            self.values.append(value)

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0}
        summary = {
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count,
            "min": self.min,
            "max": self.max,
        }
        # Percentiles come from the retained sample (exact up to the
        # retention cap; the streaming moments above are always exact).
        for pct in SUMMARY_PERCENTILES:
            summary[f"p{pct}"] = percentile(self.values, pct)
        return summary


class MetricsRegistry:
    """Thread-safe store of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram()
            hist.observe(value)

    def counter(self, name: str) -> float:
        """Current value of a counter (0.0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def snapshot(self) -> dict[str, Any]:
        """All current values as one JSON-able dict."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {name: hist.summary() for name, hist
                               in sorted(self._histograms.items())},
            }

    def reset(self) -> None:
        """Drop every metric."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def render(self) -> str:
        """Snapshot rendered as aligned ``name  value`` lines."""
        snap = self.snapshot()
        lines: list[str] = []
        entries: list[tuple[str, str]] = []
        for name, value in snap["counters"].items():
            entries.append((name, _fmt_number(value)))
        for name, value in snap["gauges"].items():
            entries.append((name, _fmt_number(value)))
        for name, summary in snap["histograms"].items():
            if summary["count"]:
                entries.append(
                    (name, f"n={summary['count']} "
                           f"mean={_fmt_number(summary['mean'])} "
                           f"min={_fmt_number(summary['min'])} "
                           f"max={_fmt_number(summary['max'])}"))
            else:
                entries.append((name, "n=0"))
        if not entries:
            return "(no metrics recorded)"
        width = max(len(name) for name, _ in entries)
        for name, text in entries:
            lines.append(f"{name.ljust(width)}  {text}")
        return "\n".join(lines)


def _fmt_number(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


#: The process-wide registry behind the module-level helpers.
REGISTRY = MetricsRegistry()

_enabled = False


def enable() -> None:
    """Start recording through the module-level helpers."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Make the module-level helpers no-ops again (the default)."""
    global _enabled
    _enabled = False


def metrics_enabled() -> bool:
    """True while the module-level helpers record into :data:`REGISTRY`."""
    return _enabled


def inc(name: str, value: float = 1.0) -> None:
    """Increment a counter on the global registry; no-op when disabled."""
    if _enabled:
        REGISTRY.inc(name, value)
        if _events_enabled():
            _emit_event("metric", name, op="inc", value=value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the global registry; no-op when disabled."""
    if _enabled:
        REGISTRY.set_gauge(name, value)
        if _events_enabled():
            _emit_event("metric", name, op="gauge", value=value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the global registry; no-op when
    disabled."""
    if _enabled:
        REGISTRY.observe(name, value)
        if _events_enabled():
            _emit_event("metric", name, op="observe", value=value)

"""Observability substrate: span tracing, metrics, and run manifests.

The experiment drivers, the CLI and the infrastructure (cache, fault
injector) report into this package; the science packages import
nothing from it:

* :mod:`repro.obs.trace` — nested wall-clock spans (``with span("x"):``),
  thread-safe, exportable as JSON or a rendered text tree.
* :mod:`repro.obs.metrics` — a process-wide registry of named counters,
  gauges, and histograms with snapshot/reset semantics.
* :mod:`repro.obs.manifest` — run provenance (git SHA, interpreter and
  NumPy versions, RNG seed, duration, peak RSS) written alongside every
  experiment CSV.
* :mod:`repro.obs.profile` — hotspot aggregation over recorded spans,
  backing ``python -m repro profile <experiment>``.

Instrumentation is **disabled by default** and the disabled paths are
deliberate no-ops (a flag check and a cached sentinel object), so an
uninstrumented run pays essentially nothing — verified by
``tests/obs/test_overhead.py``.
"""

from __future__ import annotations

from repro.obs.events import (
    ENGINE_SCOPE,
    EVENTS,
    Event,
    EventLog,
    driver_scope,
    emit,
    events_enabled,
)
from repro.obs.events import disable as disable_events
from repro.obs.events import enable as enable_events
from repro.obs.manifest import (
    build_manifest,
    environment_info,
    write_manifest,
)
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    inc,
    metrics_enabled,
    observe,
    set_gauge,
)
from repro.obs.metrics import disable as disable_metrics
from repro.obs.metrics import enable as enable_metrics
from repro.obs.profile import hotspots, render_hotspots
from repro.obs.trace import (
    TRACER,
    Span,
    Tracer,
    span,
    tracing_enabled,
)
from repro.obs.trace import disable as disable_tracing
from repro.obs.trace import enable as enable_tracing


def enable_all() -> None:
    """Turn on tracing, metrics, and event-timeline collection."""
    enable_tracing()
    enable_metrics()
    enable_events()


def disable_all() -> None:
    """Turn off tracing, metrics, and events (instrumentation becomes
    no-ops)."""
    disable_tracing()
    disable_metrics()
    disable_events()


def reset_all() -> None:
    """Drop all recorded spans, metric values, and timeline events."""
    TRACER.reset()
    REGISTRY.reset()
    EVENTS.reset()


__all__ = [
    "ENGINE_SCOPE", "EVENTS", "Event", "EventLog", "REGISTRY", "TRACER",
    "MetricsRegistry", "Span", "Tracer",
    "build_manifest", "disable_all", "disable_events",
    "disable_metrics", "disable_tracing", "driver_scope", "emit",
    "enable_all", "enable_events", "enable_metrics", "enable_tracing",
    "environment_info", "events_enabled", "hotspots", "inc",
    "metrics_enabled", "observe", "render_hotspots", "reset_all",
    "set_gauge", "span", "tracing_enabled", "write_manifest",
]

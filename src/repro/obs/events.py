"""Telemetry timeline: one deterministic event stream per run.

The event log unifies what the other ``repro.obs`` substrates record —
span open/close (:mod:`repro.obs.trace`), metric updates
(:mod:`repro.obs.metrics`), fault injections and recoveries
(:mod:`repro.fault.injector`), cache hits/misses (:mod:`repro.cache`),
and parallel result-transport records (:mod:`repro.perf.parallel`,
kind ``transport``) — into a single ordered timeline that serializes
as JSONL (``events.jsonl`` next to the run's CSVs).

Determinism is the design constraint: events are ordered by a monotonic
sequence number, never wall clock, and carry no timestamps, durations,
PIDs, or memory numbers.  For a fixed seed the timeline of a run is
therefore *byte-identical* across repetitions — serial or
``run_all(jobs=N)`` — which is what makes run-vs-run diffing
(:mod:`repro.obs.analyze`) trustworthy.

Every event is tagged with the experiment driver it belongs to
(:func:`driver_scope`, entered by ``repro.experiments.run_module`` and
the cached runner).  Events emitted outside any driver — the engine's
own spans, pool bookkeeping — carry the empty driver tag and are
excluded from run-vs-run diffs by default, because the serial and
parallel engines legitimately differ there.

Parallel runs merge deterministically: each worker exports its event
block with its payload, and the parent adopts the blocks in driver
submission order (:meth:`EventLog.adopt`), reassigning sequence numbers
so the merged timeline is gapless and byte-stable for a fixed seed.

Collection is disabled by default; :func:`emit` is a no-op (one module
flag check) until :func:`enable` is called, preserving the <5 %
disabled-instrumentation budget enforced by
``tests/obs/test_overhead.py``.  Span and metric events are
emitted *by* the trace and metrics substrates, inside their own enabled
paths — so a timeline needs tracing and metrics on too.  Use
``repro.obs.enable_all()`` (or the CLI's ``--events``, which implies
``--trace --metrics``) rather than :func:`enable` alone.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = ["Event", "EventLog", "EVENTS", "emit", "enable", "disable",
           "events_enabled", "driver_scope", "current_driver",
           "ENGINE_SCOPE"]

#: Driver tag of events emitted outside any experiment driver.
ENGINE_SCOPE = ""

#: Event kinds the timeline records.
KINDS = ("span_start", "span_end", "metric", "fault", "cache",
         "transport")


@dataclass(frozen=True)
class Event:
    """One timeline entry.

    Attributes:
        seq: monotonic position in the run's timeline (0-based, gapless).
        driver: experiment id the event belongs to ("" = engine scope).
        kind: event category ("span_start", "span_end", "metric",
            "fault", "cache", "transport").
        name: what it concerns (span name, metric name, fault
            ``domain.kind``, cache operation).
        attrs: JSON-able, *deterministic* specifics — values derived
            from inputs and seeds only, never from the clock or the
            host.
    """

    seq: int
    driver: str
    kind: str
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation (attr keys sorted for stability)."""
        return {"seq": self.seq, "driver": self.driver, "kind": self.kind,
                "name": self.name,
                "attrs": dict(sorted(self.attrs.items()))}

    def to_jsonl(self) -> str:
        """The event's canonical single-line JSON form."""
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


class EventLog:
    """Thread-safe, append-only event collector with driver tagging.

    One process-wide instance (:data:`EVENTS`) backs the module-level
    :func:`emit`; isolated instances can be created for tests.
    """

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._lock = threading.Lock()
        self._driver = ENGINE_SCOPE

    # -- emission ---------------------------------------------------------

    def emit(self, kind: str, name: str, /, **attrs: Any) -> Event:
        """Append one event under the current driver scope.

        ``kind`` and ``name`` are positional-only so attrs may reuse
        those words.
        """
        with self._lock:
            event = Event(seq=len(self._events), driver=self._driver,
                          kind=kind, name=name, attrs=attrs)
            self._events.append(event)
        return event

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

    # -- access / lifecycle ----------------------------------------------

    @property
    def events(self) -> list[Event]:
        """The recorded timeline, in sequence order."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def reset(self) -> None:
        """Drop every recorded event and leave driver scope."""
        with self._lock:
            self._events.clear()
            self._driver = ENGINE_SCOPE

    # -- serialization / merge -------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        """The whole timeline as JSON-able dicts."""
        return [event.to_dict() for event in self.events]

    def to_jsonl(self) -> str:
        """Canonical JSONL text (one event per line, trailing newline).

        Byte-stable for a fixed seed: events carry no clocks, and
        sequence numbers are assignment-ordered.
        """
        lines = [event.to_jsonl() for event in self.events]
        return "\n".join(lines) + "\n" if lines else ""

    def write_jsonl(self, path: Path | str) -> Path:
        """Write the timeline to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    def adopt(self, records: Iterable[dict[str, Any]]) -> int:
        """Append externally recorded events, reassigning sequence
        numbers.

        The parallel engine calls this once per worker payload, in
        driver submission order, so the merged timeline is identical
        run-to-run regardless of completion order.  Returns the number
        of events adopted.
        """
        adopted = 0
        with self._lock:
            for record in records:
                self._events.append(Event(
                    seq=len(self._events),
                    driver=record.get("driver", ENGINE_SCOPE),
                    kind=record["kind"],
                    name=record["name"],
                    attrs=dict(record.get("attrs", {}))))
                adopted += 1
        return adopted


#: The process-wide event log behind :func:`emit`.
EVENTS = EventLog()

_enabled = False


def enable() -> None:
    """Start recording events process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Stop recording; :func:`emit` reverts to the no-op fast path."""
    global _enabled
    _enabled = False


def events_enabled() -> bool:
    """True while :func:`emit` records into :data:`EVENTS`."""
    return _enabled


def emit(kind: str, name: str, /, **attrs: Any) -> None:
    """Record one event on the global log; no-op while disabled."""
    if _enabled:
        EVENTS.emit(kind, name, **attrs)


@contextmanager
def driver_scope(driver: str) -> Iterator[None]:
    """Tag events emitted inside the block with ``driver`` (reentrant;
    cheap no-op pass-through when collection is disabled)."""
    if not _enabled:
        yield
        return
    with EVENTS.scope(driver):
        yield


def current_driver() -> str:
    """The driver tag events are currently emitted under."""
    return EVENTS._driver

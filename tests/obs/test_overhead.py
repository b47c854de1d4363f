"""Disabled instrumentation is nearly free on the fig7 driver.

The ``repro.obs`` contract is that instrumentation left in the drivers
costs < 5 % of runtime when disabled (the default), so un-traced timings
can be trusted.  Checked two ways:

1. micro: one disabled ``span()`` and one disabled ``inc()`` are timed
   directly and must each stay under 2 microseconds;
2. macro: one fully-traced fig7 run counts its spans and its counter
   updates, and (spans x span cost + updates x ``inc`` cost) must stay
   under 5 % of the warm, untraced fig7 runtime.
"""

from __future__ import annotations

import timeit

from repro import obs
from repro.experiments import fig7, run_module
from repro.obs import metrics, trace

#: Contract: disabled instrumentation must cost < 5 % of runtime.
MAX_OVERHEAD_FRACTION = 0.05

#: Sanity ceiling on one disabled span()/inc() call (seconds).
MAX_DISABLED_CALL_S = 2e-6

#: Calls per timing sample, and samples (the minimum is kept).
CALLS, REPEAT = 20_000, 5


def _disabled_span_cost_s() -> float:
    """Per-call cost of entering and exiting a disabled span."""
    def one_span() -> None:
        with trace.span("test.noop"):
            pass

    return min(timeit.repeat(one_span, number=CALLS,
                             repeat=REPEAT)) / CALLS


def _disabled_inc_cost_s() -> float:
    """Per-call cost of a disabled counter increment."""
    return min(timeit.repeat(lambda: metrics.inc("test.noop"),
                             number=CALLS, repeat=REPEAT)) / CALLS


def _fig7_instrumentation() -> tuple[int, int]:
    """(spans, counter updates) one fully-traced fig7 run emits."""
    obs.enable_all()
    obs.reset_all()
    try:
        run_module(fig7)
        n_spans = trace.TRACER.span_count()
        n_updates = sum(metrics.REGISTRY.snapshot()["counters"].values())
    finally:
        obs.disable_all()
        obs.reset_all()
    return n_spans, int(n_updates)


def test_disabled_calls_are_cheap():
    assert not trace.tracing_enabled()
    assert not metrics.metrics_enabled()
    span_cost = _disabled_span_cost_s()
    inc_cost = _disabled_inc_cost_s()
    assert span_cost < MAX_DISABLED_CALL_S, (
        f"disabled span costs {span_cost * 1e9:.0f} ns/call")
    assert inc_cost < MAX_DISABLED_CALL_S, (
        f"disabled inc costs {inc_cost * 1e9:.0f} ns/call")


def test_disabled_overhead_under_5pct_of_fig7():
    assert not trace.tracing_enabled()
    assert not metrics.metrics_enabled()
    fig7.run()  # warm the solver memos, as a repeated driver call sees
    runtime_s = min(timeit.repeat(fig7.run, number=1, repeat=REPEAT))
    n_spans, n_updates = _fig7_instrumentation()
    overhead_s = (n_spans * _disabled_span_cost_s()
                  + n_updates * _disabled_inc_cost_s())
    fraction = overhead_s / runtime_s
    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"fig7: {n_spans} spans + {n_updates} counter updates cost "
        f"{overhead_s * 1e6:.1f} us disabled, {fraction:.1%} of "
        f"{runtime_s * 1e3:.2f} ms")

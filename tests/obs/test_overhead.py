"""Disabled instrumentation is nearly free on the fig7 driver.

The ``repro.obs`` contract is that instrumentation left in the drivers
costs < 5 % of runtime while the recorder is off (the default), so
un-traced timings can be trusted.  Checked two ways:

1. micro: one disabled ``span()`` and one disabled ``inc()`` are timed
   directly and must each stay under 2 microseconds;
2. macro: one recorded fig7 run counts the events it emits, and
   (events x the dearer disabled call) must stay under 5 % of the warm,
   unrecorded fig7 runtime.
"""

from __future__ import annotations

import timeit

from repro.experiments import fig7, run_module
from repro.obs import recorder

#: Contract: disabled instrumentation must cost < 5 % of runtime.
MAX_OVERHEAD_FRACTION = 0.05

#: Sanity ceiling on one disabled span()/inc() call (seconds).
MAX_DISABLED_CALL_S = 2e-6

#: Calls per timing sample, and samples (the minimum is kept).
CALLS, REPEAT = 20_000, 5


def _per_call_s(call) -> float:
    return min(timeit.repeat(call, number=CALLS, repeat=REPEAT)) / CALLS


def _one_span() -> None:
    with recorder.span("test.noop"):
        pass


def _fig7_events() -> int:
    """Events one recorded fig7 run emits."""
    recorder.reset()
    recorder.enable()
    try:
        run_module(fig7)
        return len(recorder.RECORDER.events)
    finally:
        recorder.disable()
        recorder.reset()


def _one_inc() -> None:
    recorder.inc("test.noop")


def test_disabled_calls_are_cheap():
    recorder.reset()
    span_cost = _per_call_s(_one_span)
    inc_cost = _per_call_s(_one_inc)
    assert recorder.RECORDER.events == []  # both timed calls were off
    assert span_cost < MAX_DISABLED_CALL_S, (
        f"disabled span costs {span_cost * 1e9:.0f} ns/call")
    assert inc_cost < MAX_DISABLED_CALL_S, (
        f"disabled inc costs {inc_cost * 1e9:.0f} ns/call")


def test_disabled_overhead_under_5pct_of_fig7():
    n_events = _fig7_events()
    assert n_events > 0
    span_cost = _per_call_s(_one_span)
    inc_cost = _per_call_s(_one_inc)
    assert recorder.RECORDER.events == []  # both timed calls were off
    fig7.run()  # warm the solver memos, as a repeated driver call sees
    runtime_s = min(timeit.repeat(fig7.run, number=1, repeat=REPEAT))
    overhead_s = n_events * max(span_cost, inc_cost)
    fraction = overhead_s / runtime_s
    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"fig7: {n_events} events cost {overhead_s * 1e6:.1f} us "
        f"disabled, {fraction:.1%} of {runtime_s * 1e3:.2f} ms")

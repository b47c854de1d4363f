"""Hypothesis properties of the Eq. 11-15 schedule search.

The pool search of ``best_schedule`` starts at the pipelined count and
gallops down; ``schedule_non_pipelined`` bisects the whole range and is
the reference it must equal.  The per-head pricing of the on-implant
table must equal ``best_schedule`` run on each head.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import schedule
from repro.accel.schedule import (
    best_schedule,
    head_powers_w,
    schedule_non_pipelined,
    schedule_pipelined,
)
from repro.accel.tech import TECH_12NM, TECH_45NM
from repro.dnn.macs import LayerMacs

TECHS = st.sampled_from([TECH_45NM, TECH_12NM])


@st.composite
def problems(draw):
    """(profiles, deadline, tech): 1-10 layers and a deadline that is a
    free float, a whole number of microseconds, or a multiple of one
    layer's MAC sequence time.  The last two put ``t / (MACseq * tMAC)``
    on or next to an integer, where its float quotient is fragile."""
    profiles = draw(st.lists(
        st.builds(LayerMacs, mac_seq=st.integers(1, 2000),
                  mac_ops=st.integers(1, 5000)),
        min_size=1, max_size=10))
    tech = draw(TECHS)
    kind = draw(st.sampled_from(["free", "microseconds", "multiple"]))
    if kind == "free":
        deadline = draw(st.floats(min_value=1e-7, max_value=1e-2))
    elif kind == "microseconds":
        deadline = draw(st.integers(1, 10_000)) / 1e6
    else:
        layer = draw(st.sampled_from(profiles))
        deadline = (layer.mac_seq * tech.t_mac_s
                    * draw(st.integers(1, 5000)))
    return profiles, deadline, tech


@given(problems(), st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=300)
def test_pool_search_equals_plain_bisection(problem, start):
    # From any start, the galloping search finds the bisection's minimum
    # when it is at most the start, and reports None otherwise.
    profiles, deadline, tech = problem
    reference = schedule_non_pipelined(profiles, deadline, tech)
    found = schedule._min_pool_units(profiles, deadline, tech, start)
    if reference is None or reference.mac_units > start:
        assert found is None
    else:
        assert found == reference.mac_units


@given(problems())
@settings(max_examples=300)
def test_best_schedule_is_the_better_mode(problem):
    profiles, deadline, tech = problem
    pooled = schedule_non_pipelined(profiles, deadline, tech)
    piped = schedule_pipelined(profiles, deadline, tech)
    if piped is None:
        # No pipelined allocation means no pool meets the deadline.
        assert pooled is None
    candidates = [s for s in (pooled, piped) if s is not None]
    best = best_schedule(profiles, deadline, tech)
    assert best == min(candidates, key=lambda s: s.mac_units, default=None)
    if best is not None:
        assert best.runtime_s <= deadline


@given(problems(), st.data())
@settings(max_examples=200)
def test_head_powers_equal_per_head_schedules(problem, data):
    profiles, deadline, tech = problem
    ends = data.draw(st.lists(st.integers(1, len(profiles)), min_size=1,
                              max_size=len(profiles)))
    expected = []
    for end in ends:
        best = best_schedule(profiles[:end], deadline, tech)
        expected.append(math.inf if best is None else best.power_w(tech))
    assert head_powers_w(profiles, ends, deadline, tech) == expected

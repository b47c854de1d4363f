"""MAC-unit scheduling: Eq. 11-12 (non-pipelined) and Eq. 14-15 (pipelined).

Given the per-layer (MACseq_i, #MACop_i) profile of a DNN and the real-time
deadline t = 1/f set by the NI sampling rate (Section 5.3, Optimization),
these solvers find the minimum number of physical MAC units (``#MAChw``)
that still meets the deadline:

* **Non-pipelined** (Eq. 11): one shared pool of ``#MAChw`` units executes
  the layers in sequence;

      t_i = MACseq_i * tMAC * ceil(#MACop_i / #MAChw),   sum_i t_i <= t

  subject to ``0 < #MAChw <= max_i #MACop_i`` (Eq. 12).

* **Pipelined** (Eq. 14): each layer i owns ``#MAChw_i`` units and layers
  overlap across inferences, so only the slowest stage must fit in t:

      max_i t_i <= t,   #MAChw = sum_i #MAChw_i   (Eq. 15)

The resulting Eq. 13 power lower bound is ``P_comp = #MAChw * PMAC``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from repro.accel.tech import TechnologyNode
from repro.dnn.macs import LayerMacs


@dataclass(frozen=True)
class Schedule:
    """A feasible accelerator schedule.

    Attributes:
        mac_units: total physical MAC units (#MAChw).
        per_layer_units: unit allocation per layer (equal-valued entries
            referencing the shared pool in the non-pipelined case).
        runtime_s: completion time for one inference (non-pipelined) or the
            slowest stage's time (pipelined initiation interval).
        pipelined: scheduling mode.
        deadline_s: the real-time constraint the schedule satisfies.
    """

    mac_units: int
    per_layer_units: tuple[int, ...]
    runtime_s: float
    pipelined: bool
    deadline_s: float

    def power_w(self, tech: TechnologyNode) -> float:
        """Eq. 13 lower bound: P_comp = #MAChw * PMAC."""
        return _power_w(self.mac_units, tech)


def _power_w(mac_units: int, tech: TechnologyNode) -> float:
    """Eq. 13: P_comp = #MAChw * PMAC."""
    return mac_units * tech.p_mac_w


def _total_time(profiles: Sequence[LayerMacs], units: int,
                tech: TechnologyNode) -> float:
    """Eq. 11 runtime of the layers in sequence, ``units`` MAC units
    each: the sum of ``fl(fl(MACseq_i * tMAC) * ceil(#MACop_i / units))``
    in layer order."""
    t_mac = tech.t_mac_s
    return sum([p.mac_seq * t_mac * math.ceil(p.mac_ops / units)
                for p in profiles])


def _pipelined_allocation(profiles: Sequence[LayerMacs],
                          deadline_s: float,
                          tech: TechnologyNode) -> list[int]:
    """Eq. 14 units of each layer, in order, up to the first layer that
    misses the deadline even with ``#MAChw_i = #MACop_i``.

    A layer may run ``floor(t / fl(MACseq_i * tMAC))`` rounds, so it
    needs ``ceil(#MACop_i / rounds)`` units.  A layer stage depends on
    no other, so the allocation of a head is a prefix of this list.
    """
    allocation = []
    for profile in profiles:
        seq_time = profile.mac_seq * tech.t_mac_s
        rounds_budget = math.floor(deadline_s / seq_time)
        if seq_time * rounds_budget > deadline_s:
            # The quotient rounded up onto an integer whose float
            # runtime overruns the deadline.
            rounds_budget -= 1
        if rounds_budget < 1:
            break
        allocation.append(math.ceil(profile.mac_ops / rounds_budget))
    return allocation


def _min_pool_units(profiles: Sequence[LayerMacs], deadline_s: float,
                    tech: TechnologyNode,
                    pipelined_units: int) -> int | None:
    """Fewest shared-pool units (Eq. 11-12) that meet the deadline, or
    None when more than ``pipelined_units`` are needed.

    The float Eq. 11 total is non-increasing in the unit count: each
    term ``fl(fl(MACseq_i * tMAC) * rounds_i)`` is, and float addition
    is monotone.  So the pool can win only if
    ``min(pipelined #MAChw, max_i #MACop_i)`` units meet the deadline.
    From that feasible count the search gallops down in doubling steps
    to the first count that misses, then bisects the last gap; with a
    unique minimum it returns what a bisection over the whole range
    returns.
    """
    hi = min(pipelined_units, max(p.mac_ops for p in profiles))
    if _total_time(profiles, hi, tech) > deadline_s:
        return None
    lo, step = 0, 1  # invariant: hi meets the deadline, lo (if > 0) not
    while hi - step >= 1:
        if _total_time(profiles, hi - step, tech) > deadline_s:
            lo = hi - step
            break
        hi, step = hi - step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _total_time(profiles, mid, tech) <= deadline_s:
            hi = mid
        else:
            lo = mid
    return hi


def _pooled(profiles: Sequence[LayerMacs], units: int, deadline_s: float,
            tech: TechnologyNode) -> Schedule:
    return Schedule(mac_units=units,
                    per_layer_units=tuple([units] * len(profiles)),
                    runtime_s=_total_time(profiles, units, tech),
                    pipelined=False, deadline_s=deadline_s)


def schedule_non_pipelined(profiles: Sequence[LayerMacs],
                           deadline_s: float,
                           tech: TechnologyNode) -> Schedule | None:
    """Minimal shared-pool schedule (Eq. 11-12), or None when infeasible.

    Feasibility is monotone in the unit count, so the minimum is found by
    bisection over [1, max_i #MACop_i].  This plain bisection is the
    reference the pool search of :func:`best_schedule` is checked
    against.
    """
    _validate(profiles, deadline_s)
    max_units = max(p.mac_ops for p in profiles)
    if _total_time(profiles, max_units, tech) > deadline_s:
        return None
    lo, hi = 1, max_units
    while lo < hi:
        mid = (lo + hi) // 2
        if _total_time(profiles, mid, tech) <= deadline_s:
            hi = mid
        else:
            lo = mid + 1
    return _pooled(profiles, lo, deadline_s, tech)


def schedule_pipelined(profiles: Sequence[LayerMacs],
                       deadline_s: float,
                       tech: TechnologyNode) -> Schedule | None:
    """Minimal per-layer allocation (Eq. 14-15), or None when infeasible.

    A layer is infeasible even with ``#MAChw_i = #MACop_i`` when a single
    MACop sequence alone exceeds the deadline (MACseq_i * tMAC > t) — the
    intra-MACop serial dependency cannot be parallelized.
    """
    _validate(profiles, deadline_s)
    allocation = _pipelined_allocation(profiles, deadline_s, tech)
    if len(allocation) < len(profiles):
        return None
    runtime = max(_total_time((profile,), units, tech)
                  for profile, units in zip(profiles, allocation))
    return Schedule(mac_units=sum(allocation),
                    per_layer_units=tuple(allocation),
                    runtime_s=runtime, pipelined=True,
                    deadline_s=deadline_s)


def best_schedule(profiles: Sequence[LayerMacs],
                  deadline_s: float,
                  tech: TechnologyNode) -> Schedule | None:
    """The lower-power of the two scheduling modes (paper: "we report the
    best result between a pipelined and a non-pipelined design"); ties go
    to the shared pool.

    The pipelined allocation is a closed-form pass, so it comes first.
    When some layer cannot be pipelined, ``t < fl(MACseq_i * tMAC)``,
    and every pool size runs that layer at least that long, so no
    schedule exists and no pool search runs.  Otherwise the pool search
    starts at the pipelined count (see :func:`_min_pool_units`).
    """
    pipelined = schedule_pipelined(profiles, deadline_s, tech)
    if pipelined is None:
        return None
    units = _min_pool_units(profiles, deadline_s, tech, pipelined.mac_units)
    if units is None:
        return pipelined
    return _pooled(profiles, units, deadline_s, tech)


def head_powers_w(profiles: Sequence[LayerMacs], ends: Sequence[int],
                  deadline_s: float,
                  tech: TechnologyNode) -> list[float]:
    """Eq. 13 power of the best schedule of each head ``profiles[:end]``,
    ``inf`` when none meets the deadline.

    Equal to ``best_schedule(profiles[:end], deadline_s, tech)
    .power_w(tech)`` for each end, but the Eq. 14 allocation is computed
    once: a head's pipelined ``#MAChw`` is a prefix sum of it.
    """
    _validate(profiles, deadline_s)
    allocation = _pipelined_allocation(profiles, deadline_s, tech)
    powers = []
    for end in ends:
        if end > len(allocation):
            powers.append(math.inf)
            continue
        pipelined = sum(allocation[:end])
        units = _min_pool_units(profiles[:end], deadline_s, tech, pipelined)
        powers.append(_power_w(pipelined if units is None else units, tech))
    return powers


@lru_cache(maxsize=4096)
def cached_best_schedule(profiles: tuple[LayerMacs, ...],
                         deadline_s: float,
                         tech: TechnologyNode) -> Schedule | None:
    """Memoized :func:`best_schedule` over hashable profile tuples.

    The strategy sweeps evaluate the same (workload shape, deadline,
    technology) triple once per SoC per grid point; profiles, deadlines
    and technology nodes are all hashable value types, so the schedule
    search only ever runs once per distinct triple in a process.
    """
    return best_schedule(profiles, deadline_s, tech)


def _validate(profiles: Sequence[LayerMacs], deadline_s: float) -> None:
    if not profiles:
        raise ValueError("need at least one compute layer")
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    for profile in profiles:
        if not profile.is_compute:
            raise ValueError("schedules require compute layers "
                             "(non-zero MAC profiles)")

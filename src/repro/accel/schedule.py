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
        return self.mac_units * tech.p_mac_w


def _layer_time(profile: LayerMacs, units: int,
                tech: TechnologyNode) -> float:
    """Eq. 11 layer runtime with ``units`` MAC units."""
    rounds = math.ceil(profile.mac_ops / units)
    return profile.mac_seq * tech.t_mac_s * rounds


def _total_time(profiles: Sequence[LayerMacs], units: int,
                tech: TechnologyNode) -> float:
    return sum(_layer_time(p, units, tech) for p in profiles)


def schedule_non_pipelined(profiles: Sequence[LayerMacs],
                           deadline_s: float,
                           tech: TechnologyNode) -> Schedule | None:
    """Minimal shared-pool schedule (Eq. 11-12), or None when infeasible.

    Feasibility is monotone in the unit count, so the minimum is found by
    bisection over [1, max_i #MACop_i].
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
    runtime = _total_time(profiles, lo, tech)
    return Schedule(mac_units=lo,
                    per_layer_units=tuple([lo] * len(profiles)),
                    runtime_s=runtime, pipelined=False,
                    deadline_s=deadline_s)


def schedule_pipelined(profiles: Sequence[LayerMacs],
                       deadline_s: float,
                       tech: TechnologyNode) -> Schedule | None:
    """Minimal per-layer allocation (Eq. 14-15), or None when infeasible.

    A layer is infeasible even with ``#MAChw_i = #MACop_i`` when a single
    MACop sequence alone exceeds the deadline (MACseq_i * tMAC > t) — the
    intra-MACop serial dependency cannot be parallelized.
    """
    _validate(profiles, deadline_s)
    allocation = []
    worst = 0.0
    for profile in profiles:
        seq_time = profile.mac_seq * tech.t_mac_s
        rounds_budget = math.floor(deadline_s / seq_time)
        if rounds_budget < 1:
            return None
        units = math.ceil(profile.mac_ops / rounds_budget)
        allocation.append(units)
        worst = max(worst, _layer_time(profile, units, tech))
    return Schedule(mac_units=sum(allocation),
                    per_layer_units=tuple(allocation),
                    runtime_s=worst, pipelined=True,
                    deadline_s=deadline_s)


def best_schedule(profiles: Sequence[LayerMacs],
                  deadline_s: float,
                  tech: TechnologyNode) -> Schedule | None:
    """The lower-power of the two scheduling modes (paper: "we report the
    best result between a pipelined and a non-pipelined design"); ties go
    to the shared pool.

    The pipelined schedule is a closed-form pass, so it is built first.
    The float Eq. 11 total is non-increasing in the unit count: each term
    ``fl(fl(MACseq_i * tMAC) * rounds_i)`` is, and float addition is
    monotone.  So a shared pool can win only if
    ``min(pipelined #MAChw, max_i #MACop_i)`` units meet the deadline;
    otherwise the pool bisection is skipped.
    """
    pipelined = schedule_pipelined(profiles, deadline_s, tech)
    if pipelined is not None:
        units = min(pipelined.mac_units, max(p.mac_ops for p in profiles))
        if _total_time(profiles, units, tech) > deadline_s:
            return pipelined
    return schedule_non_pipelined(profiles, deadline_s, tech)


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

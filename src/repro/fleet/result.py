"""Per-session and per-cohort results of a fleet run.

:class:`SessionResult` mirrors
:class:`repro.simulate.cursor_task.TaskOutcome` (the single-session
parity oracle's container) but adds the fleet dashboard quantities:
active time, Fitts index of difficulty, and the resulting bitrate.
Every derived metric is total/zero-safe — a session with no trials or
no hits reports 0.0, never NaN.

:func:`summarize_cohort` reduces per-session rows to the one dashboard
row per cohort the fleet artifacts carry (throughput, bitrate, and
degradation p50/p95/p99 as nearest-rank percentiles, NumPy's
``inverted_cdf`` method).  It is a pure function of the
rows, so the serial engine and the parent of a sharded run compute
byte-identical summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.fleet.spec import CohortSpec

__all__ = ["SessionResult", "CohortResult", "SESSION_COLUMNS",
           "summarize_cohort"]

#: Per-session row keys, in emission order.
SESSION_COLUMNS = ("session", "hits", "trials", "hit_rate",
                   "mean_time_to_target_s", "mean_path_efficiency",
                   "dropped_windows", "total_windows", "dropped_pct",
                   "time_active_s", "bitrate_bps")


@dataclass
class SessionResult:
    """Aggregate results of one closed-loop session inside a cohort.

    Attributes:
        session: index of the session within its cohort.
        hits: trials that acquired the target.
        trials: total trials run.
        times_to_target_s: acquisition times of successful trials.
        mean_path_efficiency: straight-line / travelled distance of
            hits (0.0 when no trial hit).
        dropped_windows: control windows lost to link faults.
        total_windows: control windows executed across all trials.
        difficulty_bits: Fitts index of difficulty of the task
            geometry, ``log2(2 * distance / radius)``.
        dt_s: control timestep (converts windows to active seconds).
    """

    session: int
    hits: int
    trials: int
    times_to_target_s: list[float] = field(default_factory=list)
    mean_path_efficiency: float = 0.0
    dropped_windows: int = 0
    total_windows: int = 0
    difficulty_bits: float = 0.0
    dt_s: float = 0.02

    @property
    def hit_rate(self) -> float:
        """Fraction of successful trials (0.0 on a zero-trial session)."""
        if self.trials == 0:
            return 0.0
        return self.hits / self.trials

    @property
    def mean_time_to_target_s(self) -> float:
        """Mean acquisition time over hits (0.0 when there are none)."""
        if not self.times_to_target_s:
            return 0.0
        return float(np.mean(self.times_to_target_s))

    @property
    def dropped_fraction(self) -> float:
        """Fraction of control windows lost (0.0 when none ran)."""
        if self.total_windows == 0:
            return 0.0
        return self.dropped_windows / self.total_windows

    @property
    def time_active_s(self) -> float:
        """Wall-clock control time the session actually ran."""
        return self.total_windows * self.dt_s

    @property
    def bitrate_bps(self) -> float:
        """Fitts throughput: acquired difficulty bits per active
        second (0.0 for an idle or hitless session)."""
        if self.total_windows == 0 or self.hits == 0:
            return 0.0
        return self.hits * self.difficulty_bits / self.time_active_s

    def to_row(self) -> dict[str, Any]:
        """Numeric row form (keys = :data:`SESSION_COLUMNS`)."""
        return {
            "session": self.session,
            "hits": self.hits,
            "trials": self.trials,
            "hit_rate": float(self.hit_rate),
            "mean_time_to_target_s": float(self.mean_time_to_target_s),
            "mean_path_efficiency": float(self.mean_path_efficiency),
            "dropped_windows": self.dropped_windows,
            "total_windows": self.total_windows,
            "dropped_pct": float(self.dropped_fraction * 100.0),
            "time_active_s": float(self.time_active_s),
            "bitrate_bps": float(self.bitrate_bps),
        }


@dataclass
class CohortResult:
    """One cohort's outcome: per-session rows plus the dashboard row.

    A sharded run pickles the whole result back from its child, so
    serial and ``--jobs N`` runs hold the same rows and sessions.
    """

    spec: CohortSpec
    seed: int | None
    rows: list[dict[str, Any]]
    sessions: list[SessionResult]

    def summary_row(self) -> dict[str, Any]:
        return summarize_cohort(self.spec, self.rows)


def _pct(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, 0.0 on an empty sample."""
    if not values:
        return 0.0
    return float(np.percentile(values, pct, method="inverted_cdf"))


def summarize_cohort(spec: CohortSpec,
                     rows: list[dict[str, Any]]) -> dict[str, Any]:
    """One fleet-dashboard row from a cohort's per-session rows."""
    hit_rates = [row["hit_rate"] for row in rows]
    times = [row["mean_time_to_target_s"] for row in rows
             if row["hits"] > 0]
    bitrates = [row["bitrate_bps"] for row in rows]
    dropped = [row["dropped_pct"] for row in rows]
    total_hits = sum(row["hits"] for row in rows)
    active_s = sum(row["time_active_s"] for row in rows)
    return {
        "cohort": spec.name,
        "decoder": spec.decoder,
        "sessions": len(rows),
        "trials": spec.n_trials,
        "drop_rate_pct": float(spec.drop_rate * 100.0),
        "hit_rate_mean": (float(np.mean(hit_rates))
                          if hit_rates else 0.0),
        "throughput_hits_per_s": (float(total_hits / active_s)
                                  if active_s > 0 else 0.0),
        "time_to_target_p50_s": _pct(times, 50),
        "time_to_target_p95_s": _pct(times, 95),
        "time_to_target_p99_s": _pct(times, 99),
        "bitrate_p50_bps": _pct(bitrates, 50),
        "bitrate_p95_bps": _pct(bitrates, 95),
        "bitrate_p99_bps": _pct(bitrates, 99),
        "dropped_pct_p50": _pct(dropped, 50),
        "dropped_pct_p95": _pct(dropped, 95),
        "dropped_pct_p99": _pct(dropped, 99),
    }

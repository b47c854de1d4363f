"""Per-session and per-cohort results of a fleet run.

:class:`CohortTally` holds what the lockstep simulation counts per
session as ``(n_sessions, ...)`` arrays; :meth:`CohortTally.rows`
turns them into the per-session rows, adding the fleet dashboard
quantities (active time, Fitts bitrate from the task's index of
difficulty).  Every derived metric is total/zero-safe — a session
with no trials or no hits reports 0.0, never NaN.
:meth:`CohortTally.sessions` gives the same sessions as
:class:`SessionResult` objects, the container the single-session
parity oracle (:class:`repro.simulate.cursor_task.TaskOutcome`) is
compared against.

:func:`summarize_cohort` reduces per-session rows to the one dashboard
row per cohort the fleet artifacts carry (throughput, bitrate, and
degradation p50/p95/p99 as nearest-rank percentiles, NumPy's
``inverted_cdf`` method).  It is a pure function of the
rows, so the serial engine and the parent of a sharded run compute
byte-identical summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.fleet.spec import CohortSpec

__all__ = ["CohortTally", "SessionResult", "CohortResult",
           "SESSION_COLUMNS", "summarize_cohort"]

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
    """

    session: int
    hits: int
    trials: int
    times_to_target_s: list[float]
    mean_path_efficiency: float
    dropped_windows: int
    total_windows: int

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


def _row_means(values: np.ndarray) -> np.ndarray:
    """``np.mean`` of each row's non-NaN entries, in column order (0.0
    for a row with none).

    Rows with the same count are gathered into one block and reduced
    along its last axis, which sums each row exactly as ``np.mean`` of
    that row alone does, so the result is bitwise equal to the per-row
    means.
    """
    keep = ~np.isnan(values)
    counts = keep.sum(axis=1)
    means = np.zeros(len(values))
    for count in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == count)
        block = values[rows][keep[rows]].reshape(len(rows), count)
        means[rows] = np.mean(block, axis=1)
    return means


@dataclass(frozen=True)
class CohortTally:
    """What one cohort's lockstep simulation counts per session.

    Attributes:
        hits: ``(n_sessions,)`` trials that acquired the target.
        dropped: ``(n_sessions,)`` control windows lost to link faults.
        total: ``(n_sessions,)`` control windows executed.
        times_s: ``(n_sessions, n_trials)`` acquisition time per trial,
            NaN where the trial missed.
        efficiencies: ``(n_sessions, n_trials)`` straight-line /
            travelled distance per hit, NaN where there is none.
        difficulty_bits: Fitts index of difficulty of the task
            geometry, ``log2(2 * distance / radius)``.
        dt_s: control timestep (converts windows to active seconds).
    """

    hits: np.ndarray
    dropped: np.ndarray
    total: np.ndarray
    times_s: np.ndarray
    efficiencies: np.ndarray
    difficulty_bits: float
    dt_s: float

    def rows(self) -> list[dict[str, Any]]:
        """Per-session rows (keys = :data:`SESSION_COLUMNS`)."""
        trials = self.times_s.shape[1]
        hits, total = self.hits, self.total
        ran = total > 0
        active_s = total * self.dt_s
        scored = ran & (hits > 0)
        bitrate = np.zeros(len(hits))
        bitrate[scored] = (hits[scored] * self.difficulty_bits
                           / active_s[scored])
        dropped_pct = np.zeros(len(hits))
        dropped_pct[ran] = self.dropped[ran] / total[ran] * 100.0
        columns = (
            range(len(hits)),
            hits.tolist(),
            [trials] * len(hits),
            (hits / trials if trials else np.zeros(len(hits))).tolist(),
            _row_means(self.times_s).tolist(),
            _row_means(self.efficiencies).tolist(),
            self.dropped.tolist(),
            total.tolist(),
            dropped_pct.tolist(),
            active_s.tolist(),
            bitrate.tolist(),
        )
        return [dict(zip(SESSION_COLUMNS, values))
                for values in zip(*columns)]

    def sessions(self) -> list[SessionResult]:
        """The same sessions as :class:`SessionResult` objects."""
        efficiency = _row_means(self.efficiencies).tolist()
        return [SessionResult(
                    session=i,
                    hits=int(self.hits[i]),
                    trials=self.times_s.shape[1],
                    times_to_target_s=times[~np.isnan(times)].tolist(),
                    mean_path_efficiency=efficiency[i],
                    dropped_windows=int(self.dropped[i]),
                    total_windows=int(self.total[i]))
                for i, times in enumerate(self.times_s)]


@dataclass
class CohortResult:
    """One cohort's outcome: per-session rows plus the dashboard row.

    A sharded run pickles the whole result back from its child, so
    serial and ``--jobs N`` runs hold the same rows.  Only the rows
    cross the pipe: nothing reads the :class:`CohortTally` they are
    built from.
    """

    spec: CohortSpec
    seed: int | None
    rows: list[dict[str, Any]]

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

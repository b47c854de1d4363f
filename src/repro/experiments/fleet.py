"""Extension experiment: population-scale closed-loop fleet dashboard.

Not a paper artifact — this is MINDFUL's system-level argument run at
population scale: a fleet of closed-loop cohorts (per-cohort decoder
family, link loss rate, and tuning-drift schedule) simulated by the
vectorized engine in :mod:`repro.fleet`, reported as fleet-level
dashboard rows — throughput, Fitts bitrate, and degradation
p50/p95/p99 — instead of single-session CSVs.  Every cohort stream
derives from the run seed and the cohort name, so the fleet replays
byte-identically, serial or with one forked child per cohort.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.report import ascii_bars, format_table
from repro.fleet import CohortSpec, FleetSpec, run_fleet
from repro.obs.metrics import set_gauge
from repro.obs.trace import span

#: Sessions per default cohort (kept modest so the extension run stays
#: interactive; the CLI ``--sessions`` flag scales it to fleet size).
N_SESSIONS = 64

#: Closed-loop trials per session.
N_TRIALS = 4

#: Open-loop calibration length per session.
TRAIN_TIMESTEPS = 160

#: Trial abandonment time (seconds).
TIMEOUT_S = 2.0

COLUMNS = ["cohort", "decoder", "sessions", "trials", "drop_rate_pct",
           "hit_rate_mean", "throughput_hits_per_s",
           "time_to_target_p50_s", "time_to_target_p95_s",
           "time_to_target_p99_s", "bitrate_p50_bps", "bitrate_p95_bps",
           "bitrate_p99_bps", "dropped_pct_p50", "dropped_pct_p95",
           "dropped_pct_p99"]


def default_fleet(sessions: int | None = None,
                  decoder: str | None = None) -> FleetSpec:
    """The default evaluation fleet.

    Five cohorts cover the dashboard story: one clean cohort per
    decoder family, a lossy Kalman cohort (hold-last degradation under
    25% link loss), and a drifting Kalman cohort (tuning
    nonstationarity).  ``sessions`` overrides the per-cohort size;
    ``decoder`` keeps only cohorts of that family.
    """
    n = N_SESSIONS if sessions is None else sessions
    base = dict(n_sessions=n, n_trials=N_TRIALS,
                train_timesteps=TRAIN_TIMESTEPS, timeout_s=TIMEOUT_S)
    cohorts = [
        CohortSpec(name="kalman_clean", decoder="kalman", **base),
        CohortSpec(name="wiener_clean", decoder="wiener", **base),
        CohortSpec(name="dnn_clean", decoder="dnn", **base),
        CohortSpec(name="kalman_lossy", decoder="kalman",
                   drop_rate=0.25, latency_steps=2, **base),
        CohortSpec(name="kalman_drift", decoder="kalman",
                   tuning_drift_per_s=-0.05, **base),
    ]
    if decoder is not None:
        cohorts = [c for c in cohorts if c.decoder == decoder]
        if not cohorts:
            raise ValueError(f"no default cohort uses decoder "
                             f"{decoder!r}")
    return FleetSpec(cohorts)


def run_spec(fleet: FleetSpec, base_seed: int | None = None,
             jobs: int = 1) -> ExperimentResult:
    """Run a fleet and reduce it to the dashboard result.

    Shared by the driver ``run()`` (always serial — a driver may itself
    run in a forked child, which must not fork again) and the ``repro
    fleet`` CLI (which may shard cohorts with ``--jobs``).
    """
    # No `jobs` attr here: span attrs feed the event timeline, and the
    # fleet contract keeps events.jsonl byte-identical serial vs
    # sharded.
    with span("fleet.run", cohorts=len(fleet.cohorts),
              sessions=fleet.n_sessions):
        results = run_fleet(fleet, base_seed=base_seed, jobs=jobs)
    rows = [cohort.summary_row() for cohort in results]
    clean = [r for r in rows if r["drop_rate_pct"] == 0.0]
    best = max(clean or rows, key=lambda r: r["bitrate_p50_bps"])
    lossy = [r for r in rows if r["drop_rate_pct"] > 0.0]
    summary = {
        "cohorts": len(rows),
        "fleet_sessions": fleet.n_sessions,
        "best_clean_cohort": best["cohort"],
        "best_clean_bitrate_p50_bps": best["bitrate_p50_bps"],
        "lossy_bitrate_p50_bps": (lossy[0]["bitrate_p50_bps"]
                                  if lossy else 0.0),
    }
    set_gauge("fleet.sessions_total", fleet.n_sessions)
    set_gauge("fleet.best_bitrate_p50_bps",
              summary["best_clean_bitrate_p50_bps"])
    return ExperimentResult(
        name="fleet",
        title="Extension: population-scale closed-loop fleet dashboard",
        rows=rows, summary=summary, columns=COLUMNS)


def run(seed: int | None = None) -> ExperimentResult:
    """Run the default fleet (cohort streams derive from ``seed``)."""
    return run_spec(default_fleet(), base_seed=seed, jobs=1)


def render(result: ExperimentResult) -> str:
    """Bitrate dashboard as bars plus the full percentile table."""
    peak = max((row["bitrate_p50_bps"] for row in result.rows),
               default=0.0)
    bars = {row["cohort"]: (row["bitrate_p50_bps"] / peak
                            if peak > 0 else 0.0)
            for row in result.rows}
    blocks = ["median bitrate by cohort (relative):", ascii_bars(bars),
              format_table(result.rows, COLUMNS)]
    return "\n".join(blocks)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

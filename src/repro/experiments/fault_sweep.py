"""Extension experiment: closed-loop task performance vs packet loss.

Not a paper artifact — this is the degradation curve behind MINDFUL's
safety argument: when the wireless link drops feature windows, the
decoder holds its last command (:func:`repro.simulate.cursor_task.
run_closed_loop_session` with ``drop_rate`` > 0) instead of failing, and
task success should fall *gracefully*, not collapse at the first lost
packet.  Sessions at different drop rates share common random numbers —
the same user, targets, and neural noise — so every row differs only in
which windows the link lost.
"""

from __future__ import annotations

from repro.decoders import KalmanFilterDecoder
from repro.experiments.base import ExperimentResult
from repro.experiments.report import ascii_bars, format_table
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.obs.metrics import set_gauge
from repro.obs.trace import span
from repro.seeds import current_seed, seeded_rng
from repro.simulate.cursor_task import (CursorTask, SimulatedUser,
                                        run_closed_loop_session)

#: Link loss rates swept (fraction of control windows dropped).
DROP_RATES = (0.0, 0.1, 0.25, 0.5, 0.7, 0.85)

#: Closed-loop trials per drop rate (kept small: the sweep runs six
#: full sessions).
N_TRIALS = 6

#: Open-loop calibration length per session.
TRAIN_TIMESTEPS = 600

#: Control-loop latency in steps; with hold-last degradation on top,
#: stale commands overshoot, so loss actually costs time.
LATENCY_STEPS = 4

COLUMNS = ["drop_rate_pct", "trials", "hit_rate",
           "mean_time_to_target_s", "mean_path_efficiency",
           "dropped_windows_pct"]


def run() -> ExperimentResult:
    """Sweep the closed-loop session across link drop rates."""
    user = SimulatedUser(noise_rms=0.6)
    task = CursorTask(timeout_s=0.8, target_radius=0.35)
    injector = FaultInjector(FaultPlan(seed=current_seed() or 0))
    rows = []
    with span("fault_sweep.sessions", n_rates=len(DROP_RATES)):
        for rate in DROP_RATES:
            # Fresh seeded generator per rate -> common random numbers
            # across the sweep; drop decisions draw from their own
            # derived stream so they never perturb the session stream.
            data_rng = seeded_rng()
            drop_rng = (injector.rng(f"sweep:{rate}")
                        if rate > 0.0 else None)
            decoder = KalmanFilterDecoder()
            outcome = run_closed_loop_session(
                decoder, user, task, data_rng, n_trials=N_TRIALS,
                latency_steps=LATENCY_STEPS,
                train_timesteps=TRAIN_TIMESTEPS, drop_rate=rate,
                drop_rng=drop_rng)
            rows.append({
                "drop_rate_pct": rate * 100.0,
                "trials": outcome.trials,
                "hit_rate": outcome.hit_rate,
                "mean_time_to_target_s": outcome.mean_time_to_target_s,
                "mean_path_efficiency": outcome.mean_path_efficiency,
                "dropped_windows_pct": outcome.dropped_fraction * 100.0,
            })

    clean = rows[0]
    worst = rows[-1]
    summary = {
        "clean_hit_rate": clean["hit_rate"],
        "worst_drop_rate_pct": worst["drop_rate_pct"],
        "worst_hit_rate": worst["hit_rate"],
        "hit_rate_retained_at_worst":
            (worst["hit_rate"] / clean["hit_rate"]
             if clean["hit_rate"] else 0.0),
    }
    set_gauge("fault_sweep.hit_rate_retained_at_worst",
              summary["hit_rate_retained_at_worst"])
    return ExperimentResult(
        name="fault_sweep",
        title="Extension: task success vs link packet loss "
              "(hold-last degradation)",
        rows=rows, summary=summary, columns=COLUMNS)


def render(result: ExperimentResult) -> str:
    """Degradation curve as bars plus the full table."""
    bars = {f"{row['drop_rate_pct']:.0f}% drop": row["hit_rate"]
            for row in result.rows}
    blocks = ["hit rate vs drop rate:", ascii_bars(bars),
              format_table(result.rows, COLUMNS)]
    return "\n".join(blocks)


if __name__ == "__main__":
    outcome = run()
    print(outcome.title)
    print(render(outcome))
    print(outcome.save_csv())

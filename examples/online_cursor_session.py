"""Online cursor control: loop latency meets task performance.

Connects the two ends of the framework: the MINDFUL latency budget
(acquisition + decode + stimulation inside the brain's reaction time,
Section 2/8) and what that latency *does* to a user in the loop.  A
simulated user drives a cursor through a Kalman decoder at several
control-loop latencies; hit rate and time-to-target quantify the
application-level cost the paper says data-rate metrics miss.

Run:  python examples/online_cursor_session.py
"""

import numpy as np

from repro.core.closed_loop import evaluate_closed_loop
from repro.core.scaling import scale_to_standard
from repro.core.socs import soc_by_number
from repro.decoders.kalman import KalmanFilterDecoder
from repro.dnn.models import build_speech_mlp
from repro.experiments.report import format_table
from repro.simulate.cursor_task import (
    CursorTask,
    SimulatedUser,
    run_closed_loop_session,
)


def main() -> None:
    rng = np.random.default_rng(41)
    task = CursorTask(dt_s=0.02)
    user = SimulatedUser(noise_rms=0.25)

    # Where does loop latency come from?  The implant's closed-loop
    # budget: acquisition + decode + stimulation (here: actuation).
    soc = scale_to_standard(soc_by_number(1))
    point = evaluate_closed_loop(soc, build_speech_mlp(1024), 1024)
    implant_latency_s = point.loop_latency_s
    implant_steps = int(round(implant_latency_s / task.dt_s))
    print(f"implant loop latency for {soc.name} @1024ch: "
          f"{implant_latency_s * 1e3:.0f} ms "
          f"(= {implant_steps} control steps of {task.dt_s * 1e3:.0f} ms)"
          f"\n")

    rows = []
    for label, steps in (("ideal (0 ms)", 0),
                         ("implant budget", implant_steps),
                         ("sluggish (300 ms)", 15),
                         ("broken (700 ms)", 35)):
        outcome = run_closed_loop_session(
            KalmanFilterDecoder(), user, task, rng, n_trials=15,
            latency_steps=steps)
        rows.append({
            "loop": label,
            "latency_ms": steps * task.dt_s * 1e3,
            "hit_rate": outcome.hit_rate,
            "time_to_target_s": outcome.mean_time_to_target_s,
            "path_efficiency": outcome.mean_path_efficiency,
        })
    print(format_table(rows))
    print("\nReal-time performance must be judged at the application "
          "level (Section 8):\nwith the same decoder, time-to-target "
          "more than doubles as loop latency grows\npast the reaction-"
          "time budget the implant analysis enforces — a cost no\n"
          "data-rate or sampling-frequency metric would reveal.")


if __name__ == "__main__":
    main()

"""Closed-loop center-out cursor task with a simulated user.

The loop per timestep:

1. the simulated user intends a velocity toward the current target,
2. cosine-tuned channels encode that intent (plus noise),
3. the decoder — fitted offline on open-loop data — maps features to a
   cursor velocity command,
4. the command is applied after a configurable *loop latency* (the
   acquisition + decode + actuation delay the MINDFUL analysis budgets),
5. the trial ends on target acquisition or timeout.

Because the user reacts to the *decoded* cursor, decoder errors and
latency feed back — the dynamic the paper says must be evaluated at the
application level rather than by data rate alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SimulatedUser:
    """Cosine-tuned neural encoder of movement intent.

    Attributes:
        n_channels: number of recorded channels.
        gain: intent-to-rate gain.
        noise_rms: additive feature noise.
        intent_speed: preferred cursor speed toward the target.
    """

    n_channels: int = 64
    gain: float = 1.5
    noise_rms: float = 0.3
    intent_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.n_channels < 2:
            raise ValueError("need at least two channels")
        if self.intent_speed <= 0:
            raise ValueError("intent speed must be positive")

    def preferred_directions(self,
                             rng: np.random.Generator) -> np.ndarray:
        """(n_channels, 2) unit preferred directions."""
        angles = rng.uniform(0, 2 * np.pi, self.n_channels)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def intend(self, cursor: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Intended velocity: straight at the target, speed-limited."""
        delta = target - cursor
        distance = float(np.linalg.norm(delta))
        if distance == 0:
            return np.zeros(2)
        speed = min(self.intent_speed, distance)
        return delta / distance * speed

    def encode(self, intent: np.ndarray, preferred: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        """Noisy rectified-cosine-tuned feature vector."""
        drive = preferred @ intent
        rates = np.maximum(0.5 + self.gain * drive, 0.0)
        return rates + self.noise_rms * rng.standard_normal(
            self.n_channels)


@dataclass(frozen=True)
class CursorTask:
    """Center-out reaching task configuration.

    Attributes:
        target_radius: acquisition radius around the target.
        target_distance: distance of targets from the origin.
        dt_s: control timestep.
        timeout_s: trial abandonment time.
    """

    target_radius: float = 0.5
    target_distance: float = 4.0
    dt_s: float = 0.02
    timeout_s: float = 8.0

    def __post_init__(self) -> None:
        if self.target_radius <= 0 or self.target_distance <= 0:
            raise ValueError("geometry must be positive")
        if self.dt_s <= 0 or self.timeout_s <= self.dt_s:
            raise ValueError("need 0 < dt < timeout")

    def targets(self, n_trials: int,
                rng: np.random.Generator) -> np.ndarray:
        """Random center-out targets, one per trial."""
        angles = rng.uniform(0, 2 * np.pi, n_trials)
        return self.target_distance * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1)


@dataclass
class TaskOutcome:
    """Aggregate results of a closed-loop session.

    Attributes:
        hits: trials that acquired the target.
        trials: total trials run.
        times_to_target_s: acquisition times of successful trials.
        mean_path_efficiency: straight-line / travelled distance of hits.
        dropped_windows: control windows lost to link faults (the
            decoder held its last output; see ``drop_rate``).
        total_windows: control windows executed across all trials.
    """

    hits: int
    trials: int
    times_to_target_s: list[float] = field(default_factory=list)
    mean_path_efficiency: float = 0.0
    dropped_windows: int = 0
    total_windows: int = 0

    @property
    def dropped_fraction(self) -> float:
        """Fraction of control windows lost (0 when none ran)."""
        if self.total_windows == 0:
            return 0.0
        return self.dropped_windows / self.total_windows

    @property
    def hit_rate(self) -> float:
        """Fraction of successful trials."""
        if self.trials == 0:
            return 0.0
        return self.hits / self.trials

    @property
    def mean_time_to_target_s(self) -> float:
        """Mean acquisition time over successful trials (0 if none)."""
        if not self.times_to_target_s:
            return 0.0
        return float(np.mean(self.times_to_target_s))


def run_closed_loop_session(decoder,
                            user: SimulatedUser,
                            task: CursorTask,
                            rng: np.random.Generator,
                            n_trials: int = 20,
                            latency_steps: int = 0,
                            train_timesteps: int = 3000,
                            drop_rate: float = 0.0,
                            drop_rng: np.random.Generator | None = None,
                            ) -> TaskOutcome:
    """Run an offline-calibration + closed-loop-control session.

    Args:
        decoder: any object with ``fit(states, observations)`` and
            ``decode(observations) -> states`` (Kalman, Wiener, ...).
        user: the simulated neural encoder.
        task: task geometry and timing.
        rng: random generator.
        n_trials: closed-loop trials to run.
        latency_steps: control-loop delay in timesteps (the MINDFUL
            latency budget expressed at the application level).
        train_timesteps: open-loop calibration data length.
        drop_rate: probability each control window's feature packet is
            lost on the link.  The decoder degrades gracefully: it
            holds its last command for the dropped window instead of
            failing (the neural data — and hence the ``rng`` stream —
            is unchanged, so sessions at different drop rates share
            common random numbers).
        drop_rng: dedicated generator for drop decisions; required
            when ``drop_rate`` > 0 so the main stream stays
            byte-identical to a no-fault session.

    Raises:
        ValueError: for negative latency, no trials, or an
            out-of-range/under-specified drop configuration.
    """
    if latency_steps < 0:
        raise ValueError("latency must be non-negative")
    if n_trials <= 0:
        raise ValueError("need at least one trial")
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError("drop_rate must lie in [0, 1)")
    if drop_rate > 0.0 and drop_rng is None:
        raise ValueError("drop_rate > 0 requires a dedicated drop_rng "
                         "(the session rng stream must not change)")
    preferred = user.preferred_directions(rng)

    # Offline calibration: random smooth intents, open loop.
    velocity = np.zeros((train_timesteps, 2))
    for t in range(1, train_timesteps):
        velocity[t] = 0.95 * velocity[t - 1] + 0.1 * rng.standard_normal(2)
    features = np.stack([user.encode(v, preferred, rng)
                         for v in velocity])
    decoder.fit(velocity, features)

    outcome = TaskOutcome(hits=0, trials=n_trials)
    efficiencies = []
    max_steps = int(task.timeout_s / task.dt_s)
    for target in task.targets(n_trials, rng):
        cursor = np.zeros(2)
        pending: list[np.ndarray] = [np.zeros(2)] * latency_steps
        travelled = 0.0
        held_command = np.zeros(2)
        for step in range(max_steps):
            intent = user.intend(cursor, target)
            feature = user.encode(intent, preferred, rng)
            outcome.total_windows += 1
            if drop_rate > 0.0 and drop_rng.random() < drop_rate:
                # Feature packet lost: hold the last decoded command
                # (graceful degradation, not a crash or a zero output).
                outcome.dropped_windows += 1
                command = held_command
            else:
                command = decoder.decode(feature[None, :])[0]
                held_command = command
            pending.append(command)
            applied = pending.pop(0)
            move = applied * task.dt_s * 10.0
            travelled += float(np.linalg.norm(move))
            cursor = cursor + move
            if np.linalg.norm(target - cursor) <= task.target_radius:
                outcome.hits += 1
                outcome.times_to_target_s.append((step + 1) * task.dt_s)
                straight = task.target_distance - task.target_radius
                if travelled > 0:
                    efficiencies.append(straight / travelled)
                break
    outcome.mean_path_efficiency = (float(np.mean(efficiencies))
                                    if efficiencies else 0.0)
    return outcome


def run_closed_loop_cohort(spec, base_seed=None):
    """Vectorized cohort form of :func:`run_closed_loop_session`.

    Runs ``spec.n_sessions`` concurrent closed-loop sessions as batched
    NumPy state (see :mod:`repro.fleet.engine`) and returns the list of
    per-session :class:`repro.fleet.result.SessionResult`.  A 1-session
    cohort is bit-exact against :func:`run_closed_loop_session` driven
    by the same derived cohort stream — that single-session function is
    the registered parity oracle for the fleet engine.
    """
    from repro.fleet.engine import simulate_cohort

    return simulate_cohort(spec, base_seed).sessions()


#: Batched entry points and the scalar oracles they must match
#: bit-for-bit (checked by tests/fleet/test_parity.py;
#: tests/test_source_rules.py requires a test naming both sides).
PARITY_ORACLES = {
    "run_closed_loop_cohort": "run_closed_loop_session",
}

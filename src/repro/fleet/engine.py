"""Vectorized population-scale closed-loop fleet engine.

Runs a cohort of concurrent closed-loop sessions as batched NumPy
state: cursor positions, targets, per-channel tuning, and decoder
state live in ``(n_sessions, …)`` arrays stepped in lockstep, one
batched decode per control window instead of one Python loop per
session (:mod:`repro.fleet.decoders`).

Determinism contract (tests/fleet/):

* every cohort stream derives from ``(base_seed, "fleet", name)`` via
  :func:`repro.seeds.derive_stream_seed`, so a cohort replays
  byte-identically regardless of scheduling — serial and
  sharded runs produce identical rows;
* a 1-session cohort is **bit-exact** against
  :func:`repro.simulate.cursor_task.run_closed_loop_session` (the
  registered parity oracle): the batched math replays the scalar
  operation sequence per session slice, and the cohort's block
  random draws consume the generator in exactly the scalar order
  (preferred directions, calibration noise, per-session encode
  noise, targets, then one encode draw per active session per step);
* calibration runs in chunks of :data:`CALIBRATION_CHUNK` sessions
  (:func:`repro.fleet.decoders.calibrate_batch`), each stacked fit
  bitwise equal to the scalar fit of that session's data, so a cohort
  of any size matches fitting its sessions one by one;
* drop decisions come from a dedicated link-fault stream
  (:func:`cohort_fault_seed`, then
  :func:`repro.seeds.derive_fault_seed` for the ``"link"`` domain), so
  the session streams are untouched — ``drop_rate=0`` is
  byte-identical to a no-fault cohort (CRN), and the deterministic
  tuning-drift schedule adds no draws either.

Sharding: with ``jobs > 1``, :func:`run_fleet` runs each cohort in its
own forked child (:class:`repro.perf.parallel.Launcher`), which
pickles the :class:`CohortResult` back.  The engine emits no telemetry;
the ``fleet`` driver (:mod:`repro.experiments.fleet`) records its spans
and gauges in the parent, so ``events.jsonl`` is byte-identical between
serial and ``--jobs N`` fleet runs.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.decoders import calibrate_batch
from repro.fleet.result import CohortResult, SessionResult
from repro.fleet.spec import CohortSpec, FleetSpec
from repro.seeds import derive_fault_seed, derive_stream_seed, seeded_rng

__all__ = ["cohort_seed", "cohort_fault_seed", "simulate_cohort",
           "run_cohort", "run_fleet"]

#: Sessions calibrated per batched fit.  It bounds the stacked design
#: blocks (a whole-cohort Wiener design at 2000 sessions is 207 MB);
#: the fitted models do not depend on it.
CALIBRATION_CHUNK = 64


def cohort_seed(base_seed: int | None, name: str) -> int | None:
    """The seed of one cohort's session stream (None passes through)."""
    return derive_stream_seed(base_seed, "fleet", name)


def cohort_fault_seed(base_seed: int | None, name: str) -> int | None:
    """The seed of one cohort's fault (drop-decision) stream."""
    return derive_stream_seed(base_seed, "fleet", name, "fault")


def _make_drop_rng(spec: CohortSpec,
                   base_seed: int | None) -> np.random.Generator:
    """The cohort's dedicated link-fault stream: the ``"link"`` domain
    of a fault plan seeded with :func:`cohort_fault_seed` (0 when the
    run is unseeded).

    Always constructed — constructing (without drawing) must not
    perturb anything, which is what keeps a ``drop_rate=0`` cohort
    byte-identical to a no-fault cohort.
    """
    fault_seed = cohort_fault_seed(base_seed, spec.name)
    return seeded_rng(derive_fault_seed(
        0 if fault_seed is None else fault_seed, "link"))


def _norm_rows(vectors: np.ndarray) -> np.ndarray:
    """Row norms via per-slice self dot products — bitwise equal to
    ``np.linalg.norm`` applied to each 2-vector row."""
    return np.sqrt(np.matmul(vectors[:, None, :],
                             vectors[:, :, None])[:, 0, 0])


def _calibration_chunks(spec: CohortSpec, preferred: np.ndarray,
                        velocity: np.ndarray, rng: np.random.Generator):
    """Encode the calibration block, :data:`CALIBRATION_CHUNK` sessions
    at a time: yields ``(first, velocity, features)`` per chunk.

    The noise is one ``(S, T, channels)`` block per chunk, which
    consumes the cohort stream exactly as one ``(T, channels)`` draw per
    session back to back does.
    """
    user = spec.user()
    n, t_len, c = spec.n_sessions, spec.train_timesteps, spec.n_channels
    for first in range(0, n, CALIBRATION_CHUNK):
        chunk = slice(first, min(first + CALIBRATION_CHUNK, n))
        drive = np.matmul(preferred[chunk, None],
                          velocity[chunk, :, :, None])[..., 0]
        rates = np.maximum(0.5 + user.gain * drive, 0.0)
        noise = rng.standard_normal((len(drive), t_len, c))
        yield first, velocity[chunk], rates + user.noise_rms * noise


def _simulate(spec: CohortSpec, rng: np.random.Generator,
              drop_rng: np.random.Generator | None,
              decoder_seed: int | None) -> list[SessionResult]:
    """The lockstep cohort simulation (see module docstring).

    ``drop_rng`` is only drawn from when ``spec.drop_rate > 0`` — the
    session ``rng`` stream is identical across drop rates (CRN).
    """
    user = spec.user()
    task = spec.task()
    n, c = spec.n_sessions, spec.n_channels
    t_len = spec.train_timesteps

    # Per-session tuning: one block draw, row-major — session i's
    # angles are exactly the draws its scalar session would make.
    angles = rng.uniform(0, 2 * np.pi, (n, c))
    preferred = np.stack([np.cos(angles), np.sin(angles)], axis=2)

    # Open-loop calibration: the AR(1) intent random walk, one noise
    # block for the whole cohort, stepped in lockstep over time.
    noise = rng.standard_normal((n, t_len - 1, 2))
    velocity = np.zeros((n, t_len, 2))
    for t in range(1, t_len):
        velocity[:, t] = (0.95 * velocity[:, t - 1]
                          + 0.1 * noise[:, t - 1])

    # Encode and fit the calibration block chunk by chunk, straight
    # into the batched decoder's stacks.
    batch = calibrate_batch(
        spec, decoder_seed,
        _calibration_chunks(spec, preferred, velocity, rng))

    t_angles = rng.uniform(0, 2 * np.pi, (n, spec.n_trials))
    targets_all = task.target_distance * np.stack(
        [np.cos(t_angles), np.sin(t_angles)], axis=2)

    max_steps = int(task.timeout_s / task.dt_s)
    hits = np.zeros(n, dtype=np.int64)
    dropped = np.zeros(n, dtype=np.int64)
    total = np.zeros(n, dtype=np.int64)
    times = np.full((n, spec.n_trials), np.nan)
    effs = np.full((n, spec.n_trials), np.nan)
    straight = task.target_distance - task.target_radius

    for trial in range(spec.n_trials):
        target = targets_all[:, trial]
        cursor = np.zeros((n, 2))
        pending = [np.zeros((n, 2))
                   for _ in range(spec.latency_steps)]
        travelled = np.zeros(n)
        held = np.zeros((n, 2))
        active = np.ones(n, dtype=bool)
        for step in range(max_steps):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            # Intent: straight at the target, speed-limited, with the
            # scalar guard for a cursor sitting exactly on the target.
            delta = target[idx] - cursor[idx]
            distance = _norm_rows(delta)
            moving = distance != 0.0
            safe = np.where(moving, distance, 1.0)
            speed = np.minimum(user.intent_speed, distance)
            intent = np.where(
                moving[:, None],
                delta / safe[:, None] * speed[:, None], 0.0)
            # Nonstationarity schedule: deterministic tuning-gain
            # drift over session time; drift 0 takes the exact base
            # code path (bitwise CRN across drift settings).
            if spec.tuning_drift_per_s != 0.0:
                elapsed_s = (trial * max_steps + step) * task.dt_s
                gain = user.gain * (
                    1.0 + spec.tuning_drift_per_s * elapsed_s)
            else:
                gain = user.gain
            drive = np.matmul(preferred[idx],
                              intent[:, :, None])[:, :, 0]
            rates = np.maximum(0.5 + gain * drive, 0.0)
            # Compacted draw: only active sessions consume encode
            # noise, matching the scalar early-break draw count.
            feature = rates + user.noise_rms * rng.standard_normal(
                (idx.size, c))
            total[idx] += 1
            decoded = batch.decode(feature, idx)
            if drop_rng is not None and spec.drop_rate > 0.0:
                lost = drop_rng.random(idx.size) < spec.drop_rate
                dropped[idx] += lost
                command = np.where(lost[:, None], held[idx], decoded)
            else:
                command = decoded
            held[idx] = command
            queued = np.zeros((n, 2))
            queued[idx] = command
            pending.append(queued)
            applied = pending.pop(0)[idx]
            move = applied * task.dt_s * 10.0
            travelled[idx] += _norm_rows(move)
            cursor[idx] += move
            reached = _norm_rows(target[idx] - cursor[idx])
            hit = reached <= task.target_radius
            if np.any(hit):
                hidx = idx[hit]
                hits[hidx] += 1
                times[hidx, trial] = (step + 1) * task.dt_s
                good = travelled[hidx] > 0
                effs[hidx[good], trial] = (straight
                                           / travelled[hidx][good])
                active[hidx] = False

    difficulty = float(np.log2(2.0 * task.target_distance
                               / task.target_radius))
    sessions = []
    for i in range(n):
        tmask = ~np.isnan(times[i])
        emask = ~np.isnan(effs[i])
        sessions.append(SessionResult(
            session=i,
            hits=int(hits[i]),
            trials=spec.n_trials,
            times_to_target_s=[float(v) for v in times[i][tmask]],
            mean_path_efficiency=(float(np.mean(effs[i][emask]))
                                  if bool(emask.any()) else 0.0),
            dropped_windows=int(dropped[i]),
            total_windows=int(total[i]),
            difficulty_bits=difficulty,
            dt_s=task.dt_s))
    return sessions


def simulate_cohort(spec: CohortSpec,
                    base_seed: int | None = None) -> list[SessionResult]:
    """Simulate one cohort; returns its per-session results.

    All randomness flows from ``cohort_seed(base_seed, spec.name)``
    (session stream) and ``cohort_fault_seed`` (drop stream) — the
    replay contract of the fleet.
    """
    seed = cohort_seed(base_seed, spec.name)
    return _simulate(spec, seeded_rng(seed),
                     _make_drop_rng(spec, base_seed), seed)


def run_cohort(spec: CohortSpec,
               base_seed: int | None = None) -> CohortResult:
    """Simulate one cohort and collect its rows."""
    sessions = simulate_cohort(spec, base_seed)
    return CohortResult(spec=spec,
                        seed=cohort_seed(base_seed, spec.name),
                        rows=[s.to_row() for s in sessions],
                        sessions=sessions)


def _run_fleet_sharded(fleet: FleetSpec, base_seed: int | None,
                       jobs: int) -> list[CohortResult]:
    """One forked child per cohort; collect in cohort order."""
    from repro.perf.parallel import Launcher

    with Launcher(jobs) as launcher:
        handles = [launcher.submit(
            lambda spec=spec: run_cohort(spec, base_seed))
            for spec in fleet.cohorts]
        return [launcher.wait(handle) for handle in handles]


def run_fleet(fleet: FleetSpec, base_seed: int | None = None,
              jobs: int = 1) -> list[CohortResult]:
    """Run every cohort of a fleet; ``jobs > 1`` runs each cohort in
    its own forked child, at most ``jobs`` at a time.

    Returns cohort results in fleet order; rows are byte-identical
    between serial and sharded execution (see module docstring).
    """
    if jobs <= 1:
        return [run_cohort(spec, base_seed) for spec in fleet.cohorts]
    return _run_fleet_sharded(fleet, base_seed, jobs)

"""Per-figure experiment drivers (see DESIGN.md experiment index).

Each module exposes ``run() -> ExperimentResult`` and
``render(result) -> str``; :func:`run_all` executes the full evaluation
and writes every CSV under an output directory.  :func:`run_module` is
the single instrumented entry point both :func:`run_all` and the CLI go
through: it wraps the driver in an ``experiment.<name>`` span, times it,
and stamps seed + duration onto the result (which the manifest written
by ``save_csv`` then records).
"""

from __future__ import annotations

import inspect
import time
from pathlib import Path
from types import ModuleType
from typing import Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.report import DEFAULT_OUTPUT_DIR, format_table
from repro.obs.recorder import driver_scope, inc, span
from repro.seeds import current_seed, derive_driver_seed, set_run_seed
from repro.experiments import (
    fault_sweep,
    fig4,
    fleet,
    frontier,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    table1,
)

#: Paper-artifact drivers, in paper order.
ALL_EXPERIMENTS = (table1, fig4, fig5, fig6, fig7, fig8, fig9, fig10,
                   fig11, fig12)

#: Extension drivers beyond the paper's evaluation (see DESIGN.md);
#: ``frontier`` stays last (the reporting contract tested in
#: tests/experiments/test_frontier.py).
EXTENSION_EXPERIMENTS = (fault_sweep, fleet, frontier)

#: Schema of a recorded-failure row (a driver that exhausted its retry
#: budget degrades to this instead of killing the run).
FAILURE_COLUMNS = ("driver", "status", "attempts", "error")


def experiment_name(module: ModuleType) -> str:
    """Driver module -> experiment id ("repro.experiments.fig5" ->
    "fig5")."""
    return module.__name__.rsplit(".", 1)[-1]


def run_module(module: ModuleType,
               seed: int | None = None) -> ExperimentResult:
    """Run one driver with automatic tracing and provenance.

    Wraps ``module.run()`` in an ``experiment.<name>`` span and stamps
    seed/duration onto the result so its manifest records them.

    ``seed`` (or, when omitted, the process run seed) is the *base* run
    seed; the driver actually runs under a per-driver seed derived from
    it (:func:`repro.seeds.derive_driver_seed`) — forwarded to
    drivers whose ``run`` accepts a ``seed`` and installed as the process
    run seed for the driver's duration so ``seeded_rng()`` users see it
    too.  Deriving per driver rather than sharing one stream makes a
    driver's artifacts depend on (seed, driver name) only, never on
    which other drivers ran before it.
    """
    name = experiment_name(module)
    if seed is None:
        seed = current_seed()
    driver_seed = derive_driver_seed(seed, name)
    kwargs = {}
    if driver_seed is not None and "seed" in inspect.signature(
            module.run).parameters:
        kwargs["seed"] = driver_seed
    previous_seed = current_seed()
    if driver_seed is not None:
        set_run_seed(driver_seed)
    try:
        with driver_scope(name):
            start = time.perf_counter()
            with span(f"experiment.{name}"):
                result = module.run(**kwargs)
            result.duration_s = time.perf_counter() - start
            inc("experiments.runs")
    finally:
        if driver_seed is not None:
            set_run_seed(previous_seed)
    result.seed = seed
    result.derived_seed = driver_seed
    return result


def _failure_result(name: str, attempts: int, error: str,
                    seed: int | None = None) -> ExperimentResult:
    """The recorded-failure row a driver degrades to after its retry
    budget is exhausted (schema: :data:`FAILURE_COLUMNS`)."""
    row = {"driver": name, "status": "failed", "attempts": attempts,
           "error": error}
    result = ExperimentResult(
        name=name,
        title=f"{name} (recorded failure after {attempts} attempt(s))",
        rows=[row],
        summary={"status": "failed", "attempts": attempts,
                 "error": error},
        columns=list(FAILURE_COLUMNS))
    result.seed = seed
    result.fault_info = {"injected": attempts, "recovered": 0,
                         "failed": 1, "attempts": attempts,
                         "error": error}
    return result


def is_recorded_failure(result: ExperimentResult) -> bool:
    """True for a degraded recorded-failure result (the driver never
    produced real rows)."""
    return result.summary.get("status") == "failed"


def render_result(module: ModuleType, result: ExperimentResult) -> str:
    """Render a result through its driver, tolerating degraded runs.

    Driver ``render`` functions assume their own row schema; a
    recorded-failure result carries :data:`FAILURE_COLUMNS` rows
    instead, so feeding it to ``module.render`` would die on the
    missing columns/summary keys.  Every CLI rendering path (evaluate,
    profile, verbose ``run_all``) goes through here so degraded
    drivers print their failure row instead of erroring.
    """
    if is_recorded_failure(result):
        return format_table(result.rows, list(FAILURE_COLUMNS))
    return module.render(result)


def run_module_resilient(module: ModuleType,
                         seed: int | None = None,
                         max_retries: int = 2,
                         backoff_s: float = 0.25,
                         fault_plan=None,
                         injector=None,
                         runner=None) -> ExperimentResult:
    """Run one driver with bounded retries and graceful degradation.

    The one driver engine behind :func:`run_all`, ``evaluate`` and
    ``profile``: a driver that raises gets retried with exponential
    backoff (``backoff_s * 2**(attempt-1)``) up to ``max_retries``
    extra attempts, then degrades to a recorded-failure result
    (:func:`is_recorded_failure`) instead of killing the run.  On the
    happy path this is exactly :func:`run_module` — no extra sleeps, no
    extra RNG draws, byte-identical artifacts.

    Args:
        module: the driver module.
        seed: base run seed (as in :func:`run_module`).
        max_retries: extra attempts after the first failure.
        backoff_s: base backoff; 0 retries immediately.
        fault_plan: optional :class:`repro.fault.plan.FaultPlan` whose
            worker faults are applied before each attempt (crash
            raises, slow sleeps).
        injector: optional :class:`repro.fault.injector.FaultInjector`
            used for fault accounting (created from ``fault_plan``
            when omitted).
        runner: the single-attempt callable, defaulting to
            :func:`run_module`; the cached path passes a closure over
            :func:`repro.cache.runner.run_and_save_cached`.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    if injector is None and fault_plan is not None:
        from repro.fault.injector import FaultInjector
        injector = FaultInjector(fault_plan)
    if runner is None:
        runner = run_module
    name = experiment_name(module)
    worker_spec = fault_plan.worker if fault_plan is not None else None

    error_text = ""
    attempts_used = 0
    # Bounded retry: at most max_retries extra attempts, then degrade.
    for attempt in range(max_retries + 1):
        attempts_used = attempt + 1
        if attempt > 0:
            if backoff_s > 0:
                time.sleep(backoff_s * 2.0 ** (attempt - 1))
            inc("experiments.retries")
        try:
            if worker_spec is not None:
                kind, seconds = worker_spec.fault_for(name, attempt)
                if kind is not None and injector is not None:
                    injector.record_worker_fault(name, attempt, kind,
                                                 seconds=seconds)
                if kind == "crash":
                    from repro.fault.plan import InjectedWorkerFault
                    raise InjectedWorkerFault(name, attempt)
                if kind == "slow" and seconds > 0:
                    time.sleep(seconds)
            result = runner(module, seed=seed)
        except Exception as error:
            inc("experiments.driver_failures")
            error_text = f"{type(error).__name__}: {error}"
            continue
        if attempt > 0:
            result.fault_info = {"injected": attempt, "recovered": 1,
                                 "failed": 0, "attempts": attempts_used}
            if injector is not None:
                injector.record_recovered("worker", target=name,
                                          attempts=attempts_used)
        return result
    if injector is not None:
        injector.record_failed("worker", target=name,
                               attempts=attempts_used)
    inc("experiments.recorded_failures")
    return _failure_result(name, attempts=attempts_used,
                           error=error_text, seed=seed)


def run_all(output_dir: Path | str = DEFAULT_OUTPUT_DIR,
            verbose: bool = False,
            seed: int | None = None,
            cache: bool = False,
            max_retries: int = 2,
            fault_plan=None,
            injector=None,
            modules: Sequence[ModuleType] | None = None
            ) -> list[ExperimentResult]:
    """Run experiment drivers one after another, saving one CSV (+
    manifest) per figure/table.

    Args:
        output_dir: destination for the CSV artifacts.
        verbose: print each rendering as it completes.
        seed: RNG seed threaded to stochastic drivers and manifests.
        cache: route every driver through the content-addressed cache
            under ``<output_dir>/.cache``
            (:func:`repro.cache.runner.run_and_save_cached`); unchanged
            drivers replay their stored results byte-for-byte.
        max_retries: bounded per-driver retry budget
            (:func:`run_module_resilient`); a driver that still fails
            degrades to a recorded-failure row
            (:func:`is_recorded_failure`) instead of killing the run.
            Overridden by ``fault_plan.retry`` when a plan is given.
        fault_plan: optional :class:`repro.fault.plan.FaultPlan`; its
            worker faults are injected and its retry policy replaces
            ``max_retries`` and the default backoff.
        injector: optional :class:`repro.fault.injector.FaultInjector`
            shared across drivers so fault accounting aggregates into
            one log (the CLI passes one to print its summary).
        modules: the drivers to run, in order; defaults to the paper
            artifacts.

    Returns:
        The results in the order of ``modules``.
    """
    if modules is None:
        modules = ALL_EXPERIMENTS
    retry = {"max_retries": max_retries}
    if fault_plan is not None:
        retry = {"max_retries": fault_plan.retry.max_retries,
                 "backoff_s": fault_plan.retry.backoff_s}
        if injector is None:
            from repro.fault.injector import FaultInjector
            injector = FaultInjector(fault_plan)
    runner = None
    if cache:
        from repro.cache.runner import run_and_save_cached, store_for
        store = store_for(output_dir)

        def runner(module: ModuleType,
                   seed: int | None = None) -> ExperimentResult:
            return run_and_save_cached(module, output_dir, seed=seed,
                                       store=store)
    results = []
    for module in modules:
        result = run_module_resilient(
            module, seed=seed, fault_plan=fault_plan, injector=injector,
            runner=runner, **retry)
        if not cache or is_recorded_failure(result):
            result.save_csv(output_dir)
        elif result.fault_info is not None:
            result.save_manifest(output_dir)
        if verbose:
            print(f"== {result.title} ==")
            print(render_result(module, result))
            print()
        results.append(result)
    return results

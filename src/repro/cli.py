"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — list the Table 1 designs.
* ``evaluate [NAMES...]`` — regenerate paper tables/figures (default all),
  one driver after another, printing each rendering and writing CSVs +
  run manifests; ``--cache`` replays unchanged drivers from the
  content-addressed result cache (``<output-dir>/.cache``, see
  :mod:`repro.cache`).
* ``fleet`` — run the population-scale closed-loop fleet
  (:mod:`repro.fleet`): vectorized cohorts with per-cohort decoder
  family, link loss, and tuning drift, written as the cohort dashboard
  CSV; ``--jobs N`` runs each cohort in its own forked child with
  byte-identical artifacts.
* ``assess SOC`` — scale one Table 1 design to 1024 channels and print its
  safety report and headline feasibility numbers.
* ``explore SOC`` — run the full strategy comparison for one design.
* ``roadmap SOC`` — years until the channel-count trend overtakes each
  strategy's frontier.
* ``validate`` — score every machine-checkable paper claim and the
  safety claims (power budget, tissue rise, link goodput) against the
  regenerated results; exit code 1 only if a claim fails.
* ``profile EXPERIMENT`` — run one experiment (or ``all``) with the
  telemetry recorder on and print the nested span tree plus the top-N
  hotspots.
* ``cache {stats,clear,gc}`` — inspect or prune the content-addressed
  result cache under ``<output-dir>/.cache``.
* ``chaos`` — run the fault-injection drills (link, cache) plus the
  ``fault_sweep`` degradation experiment under a seeded
  :class:`repro.fault.plan.FaultPlan`, writing ``fault_log.json`` +
  ``chaos_report.json``; byte-identical for a fixed ``--seed``
  (docs/ROBUSTNESS.md).
* ``obs bench-gate`` — the perf-trajectory regression gate over
  ``results/bench_history.jsonl`` (:mod:`repro.obs.bench`, exit 1 on
  >20 % slowdown of a benchmark entry); see docs/OBSERVABILITY.md.

Fault flags on ``evaluate``: ``--fault-plan PLAN.json`` injects the
plan's faults and applies its retry policy; ``--max-retries N`` bounds
the per-driver retry budget (failed drivers degrade to recorded-failure
rows instead of killing the run).

Global observability flags (valid after any subcommand).  Any one of
them turns on the telemetry recorder (:mod:`repro.obs.recorder`); each
selects one view of what it recorded:

* ``--trace`` — write the span forest as JSON
  (``<output-dir>/trace.json`` for ``evaluate``, ``results/trace.json``
  otherwise).
* ``--metrics`` — print the counters/gauges/histograms snapshot after
  the command finishes.
* ``--events`` — write the deterministic run timeline as
  ``<output-dir>/events.jsonl``; byte-identical for a fixed seed (for
  ``fleet``, serial or ``--jobs N``).
* ``--quiet`` — suppress per-experiment renderings (artifacts are still
  written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.explorer import explore
from repro.core.scaling import scale_to_standard
from repro.core.socs import TABLE1, soc_by_number
from repro.experiments import (
    ALL_EXPERIMENTS,
    EXTENSION_EXPERIMENTS,
    experiment_name,
    is_recorded_failure,
    render_result,
    run_all,
    run_module,
    run_module_resilient,
)
from repro.experiments.report import DEFAULT_OUTPUT_DIR, format_table
from repro.obs import recorder
from repro.obs.recorder import RECORDER
from repro.seeds import set_run_seed
from repro.thermal.budget import assess as thermal_assess
from repro.units import to_mbps, to_mm2, to_mw


def _known_experiments() -> dict[str, object]:
    """Experiment id -> driver module, extensions included."""
    return {experiment_name(module): module
            for module in ALL_EXPERIMENTS + EXTENSION_EXPERIMENTS}


def _print_cache_summary(results: list) -> None:
    """One-line driver hit/miss summary for cached runs."""
    hits = sum(1 for result in results
               if result.cache_info and result.cache_info.get("hit"))
    print(f"cache: {hits}/{len(results)} driver hits")


def _cmd_list(_: argparse.Namespace) -> int:
    rows = [{"number": r.number, "name": r.name,
             "channels": r.n_channels, "wireless": r.wireless}
            for r in TABLE1]
    print(format_table(rows))
    return 0


def _print_fault_summary(injector, results: list,
                         output_dir) -> None:
    """Counters line + fault-log path for fault-aware runs."""
    failures = [result.name for result in results
                if is_recorded_failure(result)]
    counters = injector.counters
    print(f"faults: injected={counters['injected']} "
          f"recovered={counters['recovered']} "
          f"failed={counters['failed']}")
    if failures:
        print(f"recorded failures: {', '.join(failures)}")
    log_path = injector.write_log(Path(output_dir) / "fault_log.json")
    print(f"fault log written to {log_path}")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    wanted = set(args.names) if args.names else None
    # Extensions are addressable by name; the default (no names) run
    # stays the paper artifacts only.
    known = _known_experiments()
    if wanted:
        unknown = wanted - set(known)
        if unknown:
            print(f"unknown experiments: {sorted(unknown)}; "
                  f"available: {sorted(known)}", file=sys.stderr)
            return 2
    default = {experiment_name(module) for module in ALL_EXPERIMENTS}
    selected = [module for name, module in known.items()
                if (name in wanted if wanted else name in default)]
    if args.max_retries < 0:
        print("--max-retries must be non-negative", file=sys.stderr)
        return 2
    fault_plan = None
    injector = None
    if args.fault_plan:
        from repro.fault.injector import FaultInjector
        from repro.fault.plan import FaultPlan
        try:
            fault_plan = FaultPlan.from_file(args.fault_plan)
        except (OSError, ValueError) as error:
            print(f"evaluate: bad fault plan: {error}", file=sys.stderr)
            return 2
        injector = FaultInjector(fault_plan)
    results = run_all(output_dir=args.output_dir,
                      verbose=not args.quiet, seed=args.seed,
                      cache=args.cache,
                      max_retries=args.max_retries,
                      fault_plan=fault_plan, injector=injector,
                      modules=selected)
    if args.cache:
        _print_cache_summary(results)
    if injector is not None:
        _print_fault_summary(injector, results, args.output_dir)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments import fault_sweep
    from repro.fault.drills import run_chaos_drills
    from repro.fault.injector import FaultInjector
    from repro.fault.plan import FaultPlan, default_chaos_plan

    if args.fault_plan:
        try:
            plan = FaultPlan.from_file(args.fault_plan)
        except (OSError, ValueError) as error:
            print(f"chaos: bad fault plan: {error}", file=sys.stderr)
            return 2
    else:
        plan = default_chaos_plan(seed=args.seed)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    injector = FaultInjector(plan)

    drill_report = run_chaos_drills(injector, output_dir)
    result = run_module(fault_sweep, seed=args.seed)
    result.fault_info = dict(injector.counters)
    result.save_csv(output_dir)

    report_path = output_dir / "chaos_report.json"
    report_path.write_text(
        json.dumps(drill_report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    log_path = injector.write_log(output_dir / "fault_log.json")

    if not args.quiet:
        print(f"== chaos drills (plan seed {plan.seed}) ==")
        print(json.dumps(drill_report, indent=2, sort_keys=True))
        print()
        print(f"== {result.title} ==")
        print(fault_sweep.render(result))
        print()
    counters = injector.counters
    print(f"faults: injected={counters['injected']} "
          f"recovered={counters['recovered']} "
          f"failed={counters['failed']}")
    print(f"chaos report written to {report_path}")
    print(f"fault log written to {log_path}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import time

    from repro.experiments import fleet as fleet_driver
    from repro.perf.parallel import resolve_jobs
    from repro.seeds import derive_driver_seed

    if args.jobs < 0:
        print("--jobs must be positive (or 0 for all CPUs)",
              file=sys.stderr)
        return 2
    # run_fleet treats jobs <= 1 as serial, so 0 ("all CPUs") must be
    # resolved here.
    jobs = resolve_jobs(args.jobs)
    try:
        spec = fleet_driver.default_fleet(sessions=args.sessions,
                                          decoder=args.decoder)
    except ValueError as error:
        print(f"fleet: {error}", file=sys.stderr)
        return 2
    derived = derive_driver_seed(args.seed, "fleet")
    with recorder.driver_scope("fleet"):
        start = time.perf_counter()
        result = fleet_driver.run_spec(spec, base_seed=derived,
                                       jobs=jobs)
        result.duration_s = time.perf_counter() - start
    result.seed = args.seed
    result.derived_seed = derived
    path = result.save_csv(args.output_dir)
    if not args.quiet:
        print(f"== {result.title} ==")
        print(fleet_driver.render(result))
        print(f"fleet dashboard written to {path}")
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    try:
        record = soc_by_number(args.soc)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    soc = scale_to_standard(record)
    print(f"{soc.name} scaled to {soc.n_channels} channels:")
    print(f"  area  {to_mm2(soc.area_m2):8.1f} mm^2")
    print(f"  power {to_mw(soc.power_w):8.2f} mW")
    print(f"  raw throughput {to_mbps(soc.sensing_throughput_bps()):.1f} "
          f"Mbps")
    print(f"  {thermal_assess(soc.power_w, soc.area_m2).describe()}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    try:
        record = soc_by_number(args.soc)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    if not record.wireless:
        print(f"{record.name} is wired; the strategy exploration targets "
              "wireless designs (SoCs 1-8)", file=sys.stderr)
        return 2
    soc = scale_to_standard(record)
    try:
        report = explore(soc, target_channels=args.channels)
    except ValueError as error:
        print(f"explore: {error}", file=sys.stderr)
        return 2
    rows = [{"strategy": o.strategy,
             "max_channels": o.max_channels,
             f"ratio@{args.channels}": o.power_ratio_at_target,
             "feasible": o.feasible_at_target}
            for o in report.outcomes]
    print(f"strategy exploration for {soc.name} "
          f"(target {args.channels} channels):")
    print(format_table(rows))
    best = report.best_strategy()
    if best is None:
        print("no strategy is feasible at the target channel count")
    else:
        print(f"best at target: {best.strategy} "
              f"(ratio {best.power_ratio_at_target:.2f})")
    return 0


def _cmd_roadmap(args: argparse.Namespace) -> int:
    try:
        record = soc_by_number(args.soc)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    if not record.wireless:
        print(f"{record.name} is wired; roadmap targets wireless designs",
              file=sys.stderr)
        return 2
    from repro.core.roadmap import ChannelRoadmap
    soc = scale_to_standard(record)
    try:
        roadmap = ChannelRoadmap(doubling_years=args.doubling_years)
    except ValueError as error:
        print(f"roadmap: {error}", file=sys.stderr)
        return 2
    report = explore(soc, target_channels=2048)
    rows = []
    for outcome in report.outcomes:
        horizon = roadmap.strategy_horizon(outcome.max_channels)
        rows.append({
            "strategy": outcome.strategy,
            "max_channels": outcome.max_channels,
            "overtaken_in": ("never" if horizon == float("inf")
                             else f"{horizon:.0f}"),
        })
    print(f"channel-count roadmap for {soc.name} "
          f"(doubling every {roadmap.doubling_years:g} years):")
    print(format_table(rows))
    return 0


def _cmd_validate(_: argparse.Namespace) -> int:
    from repro.experiments.validate import FAIL, render_results, validate_all
    results = validate_all()
    print(render_results(results))
    return 1 if any(r.verdict == FAIL for r in results) else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    known = _known_experiments()
    if args.experiment != "all" and args.experiment not in known:
        print(f"unknown experiment {args.experiment!r}; "
              f"available: {sorted(known)} (or 'all')", file=sys.stderr)
        return 2
    if args.top < 1:
        print("--top must be at least 1", file=sys.stderr)
        return 2
    from repro.obs.profile import hotspots, render_hotspots

    recorder.enable()
    if args.experiment == "all":
        run_all(output_dir=DEFAULT_OUTPUT_DIR, seed=args.seed)
        title = "full evaluation"
    else:
        # Resilient path: a driver that dies (or recorded degraded
        # FAILURE_COLUMNS rows) still profiles — the spans recorded up
        # to the failure render, and the title reports the degradation
        # instead of a missing-column crash.
        result = run_module_resilient(known[args.experiment],
                                      seed=args.seed)
        title = result.title
        if is_recorded_failure(result) and not args.quiet:
            print(render_result(known[args.experiment], result))
    print(f"== profile: {title} ==")
    print()
    print(RECORDER.render_tree())
    print()
    print(f"-- top {args.top} hotspots (by self time) --")
    print(render_hotspots(hotspots(RECORDER.roots(), top_n=args.top)))
    rendered = RECORDER.render_metrics()
    if rendered != "(no metrics recorded)" and not args.quiet:
        print()
        print("-- metrics --")
        print(rendered)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache.runner import store_for

    store = store_for(args.output_dir)
    if args.action == "stats":
        print(json.dumps(store.stats(), indent=2))
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"cache cleared: {removed} entries removed "
              f"({store.root})")
        return 0
    report = store.gc(max_age_days=args.max_age_days,
                      max_bytes=args.max_bytes)
    print(f"cache gc: removed {report['removed']}, "
          f"kept {report['kept']} ({report['kept_bytes']} bytes)")
    return 0


def _print_report(data, text: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True, default=str))
    else:
        print(text)


def _cmd_obs_bench_gate(args: argparse.Namespace) -> int:
    from repro.obs import bench
    # --window 0 would gate against the whole history (samples[-0:]);
    # exit 1 would read as a regression.
    if args.window < 1 or args.threshold < 0:
        print("obs: --window must be at least 1 and --threshold "
              "non-negative", file=sys.stderr)
        return 2
    try:
        history = bench.load_history(args.history)
    except ValueError as error:
        print(f"obs: {error}", file=sys.stderr)
        return 2
    if args.input:
        try:
            payload = json.loads(Path(args.input).read_text(
                encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            print(f"obs: bad bench input: {error}", file=sys.stderr)
            return 2
        try:
            record = bench.history_record(payload["entries"],
                                          cpus=payload.get("cpus", 1))
        except (KeyError, TypeError, ValueError) as error:
            # Valid JSON of the wrong shape; exit 1 would read as a
            # regression.
            print(f"obs: bad bench input: {type(error).__name__}: "
                  f"{error}", file=sys.stderr)
            return 2
    elif history:
        record = history[-1]
    else:
        print(f"obs: no bench history at {args.history} and no --input",
              file=sys.stderr)
        return 2
    report = bench.check_regressions(record, history,
                                     threshold=args.threshold,
                                     window=args.window)
    _print_report(report, bench.render_gate(report),
                  args.format == "json")
    if not report["ok"]:
        return 1
    if args.input and args.append:
        bench.append_history(record, args.history)
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by every subcommand."""
    parser.add_argument(
        "--trace", action="store_true",
        help="record telemetry and write the span forest as JSON next "
             "to the outputs")
    parser.add_argument(
        "--metrics", action="store_true",
        help="record telemetry and print the metrics snapshot "
             "afterwards")
    parser.add_argument(
        "--events", action="store_true",
        help="record telemetry and write the timeline (spans, metrics, "
             "faults, cache) to <output-dir>/events.jsonl")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-experiment renderings")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MINDFUL implantable-BCI design framework")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list the Table 1 designs")
    list_cmd.set_defaults(func=_cmd_list)

    evaluate = sub.add_parser(
        "evaluate", help="regenerate paper tables/figures")
    evaluate.add_argument("names", nargs="*",
                          help="experiment ids (default: all)")
    evaluate.add_argument("--output-dir", default=str(DEFAULT_OUTPUT_DIR))
    evaluate.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed threaded into stochastic experiments and recorded "
             "in each run manifest")
    evaluate.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="replay unchanged drivers from the content-addressed "
             "result cache under <output-dir>/.cache")
    evaluate.add_argument(
        "--fault-plan", default=None, metavar="PLAN.json",
        help="inject faults from this plan (schema in "
             "docs/ROBUSTNESS.md) and apply its retry policy; writes "
             "<output-dir>/fault_log.json")
    evaluate.add_argument(
        "--max-retries", type=int, default=2,
        help="bounded retry budget per driver; a driver that still "
             "fails degrades to a recorded-failure row (overridden by "
             "--fault-plan's retry policy)")
    evaluate.set_defaults(func=_cmd_evaluate)

    chaos_cmd = sub.add_parser(
        "chaos",
        help="run the seeded fault-injection drills and the "
             "fault_sweep degradation experiment")
    chaos_cmd.add_argument(
        "--seed", type=int, default=0,
        help="plan seed; a fixed seed makes fault logs and CSVs "
             "byte-identical across runs")
    chaos_cmd.add_argument(
        "--output-dir", default=str(DEFAULT_OUTPUT_DIR / "chaos"),
        help="destination for fault_log.json, chaos_report.json, and "
             "the fault_sweep CSV")
    chaos_cmd.add_argument(
        "--fault-plan", default=None, metavar="PLAN.json",
        help="use this plan instead of the stock chaos plan")
    chaos_cmd.set_defaults(func=_cmd_chaos)

    fleet_cmd = sub.add_parser(
        "fleet",
        help="run the population-scale closed-loop fleet and write "
             "the cohort dashboard CSV")
    fleet_cmd.add_argument(
        "--seed", type=int, default=None,
        help="base run seed; every cohort stream derives from it and "
             "the cohort name, so a fixed seed replays the fleet "
             "byte-identically, serial or --jobs N")
    fleet_cmd.add_argument(
        "--sessions", type=int, default=None,
        help="sessions per cohort (default: the driver's default)")
    fleet_cmd.add_argument(
        "--decoder", choices=("kalman", "wiener", "dnn"), default=None,
        help="keep only default cohorts of this decoder family")
    fleet_cmd.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes to shard cohorts across (1 = serial, "
             "0 = all CPUs); artifacts are byte-identical either way "
             "for a fixed --seed")
    fleet_cmd.add_argument("--output-dir",
                           default=str(DEFAULT_OUTPUT_DIR))
    fleet_cmd.set_defaults(func=_cmd_fleet)

    assess = sub.add_parser("assess",
                            help="scale and safety-check one design")
    assess.add_argument("soc", type=int, help="Table 1 index (1-11)")
    assess.set_defaults(func=_cmd_assess)

    explore_cmd = sub.add_parser(
        "explore", help="compare all strategies for one design")
    explore_cmd.add_argument("soc", type=int, help="Table 1 index (1-8)")
    explore_cmd.add_argument("--channels", type=int, default=2048)
    explore_cmd.set_defaults(func=_cmd_explore)

    roadmap_cmd = sub.add_parser(
        "roadmap", help="years until the channel trend overtakes each "
                        "strategy")
    roadmap_cmd.add_argument("soc", type=int, help="Table 1 index (1-8)")
    roadmap_cmd.add_argument("--doubling-years", type=float, default=7.0)
    roadmap_cmd.set_defaults(func=_cmd_roadmap)

    validate_cmd = sub.add_parser(
        "validate",
        help="score every paper claim against the regenerated results")
    validate_cmd.set_defaults(func=_cmd_validate)

    profile_cmd = sub.add_parser(
        "profile",
        help="run one experiment with the recorder on and print the "
             "span tree and hotspots")
    profile_cmd.add_argument("experiment",
                             help="experiment id (e.g. fig5, frontier) "
                                  "or 'all' for the full evaluation")
    profile_cmd.add_argument("--top", type=int, default=10,
                             help="number of hotspots to show")
    profile_cmd.add_argument("--seed", type=int, default=None)
    profile_cmd.set_defaults(func=_cmd_profile)

    cache_cmd = sub.add_parser(
        "cache",
        help="inspect or prune the content-addressed result cache")
    cache_cmd.add_argument("action", choices=("stats", "clear", "gc"),
                           help="stats: entry/size breakdown; clear: "
                                "drop everything; gc: prune by age "
                                "then size")
    cache_cmd.add_argument("--output-dir",
                           default=str(DEFAULT_OUTPUT_DIR),
                           help="run output directory whose .cache to "
                                "operate on")
    cache_cmd.add_argument(
        "--max-age-days", type=float, default=None,
        help="gc: remove entries older than this many days")
    cache_cmd.add_argument(
        "--max-bytes", type=int, default=None,
        help="gc: then remove oldest entries until the store fits")
    cache_cmd.set_defaults(func=_cmd_cache)

    obs_cmd = sub.add_parser(
        "obs",
        help="benchmark regression gate")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    obs_gate = obs_sub.add_parser(
        "bench-gate",
        help="perf-trajectory regression gate over the benchmark "
             "history (exit 1 on regression)")
    obs_gate.add_argument(
        "--history", default=str(Path("results") / "bench_history.jsonl"),
        help="history ledger (one JSON record per benchmark run)")
    obs_gate.add_argument(
        "--input", default=None, metavar="gate_input.json",
        help="gate this benchmark output instead of the ledger's last "
             "entry")
    obs_gate.add_argument(
        "--append", action="store_true",
        help="with --input: append the run to the history ledger if "
             "it passes the gate")
    obs_gate.add_argument(
        "--threshold", type=float, default=0.20,
        help="fractional per-entry slowdown that fails (default 0.20)")
    obs_gate.add_argument(
        "--window", type=int, default=5,
        help="rolling-baseline width (median of the last N comparable "
             "runs)")
    obs_gate.add_argument("--format", choices=("text", "json"),
                          default="text")
    obs_gate.set_defaults(func=_cmd_obs_bench_gate)

    for command in (list_cmd, evaluate, fleet_cmd, assess, explore_cmd,
                    roadmap_cmd, validate_cmd, profile_cmd,
                    cache_cmd, chaos_cmd):
        _add_common_flags(command)
    return parser


def _trace_output_path(args: argparse.Namespace) -> Path:
    base = Path(getattr(args, "output_dir", DEFAULT_OUTPUT_DIR))
    return base / "trace.json"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    seed = getattr(args, "seed", None)
    if seed is not None:
        set_run_seed(seed)
    events_on = getattr(args, "events", False)
    trace_on = getattr(args, "trace", False)
    metrics_on = getattr(args, "metrics", False)
    if events_on or trace_on or metrics_on:
        recorder.enable()
    try:
        code = args.func(args)
        if events_on:
            base = Path(getattr(args, "output_dir", DEFAULT_OUTPUT_DIR))
            events_path = RECORDER.write_jsonl(base / "events.jsonl")
            if not getattr(args, "quiet", False):
                print(f"events written to {events_path}")
        if trace_on:
            path = _trace_output_path(args)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(RECORDER.to_dicts(), indent=2,
                                       default=str) + "\n")
            if not getattr(args, "quiet", False):
                print(f"trace written to {path}")
        if metrics_on:
            print("-- metrics --")
            print(RECORDER.render_metrics())
        return code
    finally:
        recorder.disable()
        recorder.reset()
        if seed is not None:
            set_run_seed(None)


if __name__ == "__main__":
    raise SystemExit(main())

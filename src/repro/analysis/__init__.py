"""repro.analysis — whole-program static analyzer for the reproduction.

The MINDFUL results are analytical: every figure is only as right as the
unit discipline (mW vs W against the 40 mW/cm^2 safety budget) and seed
discipline (byte-identical seeded runs) of the code computing it.  This
package moves those conventions from prose into tooling.  It began as a
per-file AST linter; cross-module checks (lock discipline, seed
provenance through helper chains) made it whole-program:
:mod:`repro.analysis.graph` builds a cross-module symbol table, an
import/call graph, and per-function CFGs with a bounded path-sensitive
dataflow solver, and rules receive that
:class:`~repro.analysis.graph.project.Project` context.

Entry point: ``python -m repro analyze`` (see :mod:`repro.cli`), which
supports text/JSON/SARIF reporters, a call-graph dump (``--graph
json|dot``), per-rule selection (``--rule``), and a committed baseline
file for grandfathered violations — new violations fail the run (and
CI, which uploads the SARIF to code scanning).

Rules shipped (see ``docs/STATIC_ANALYSIS.md`` for the catalog):

* ``units`` — bare power-of-ten factors in arithmetic and raw scientific
  literals bound to unit-suffixed names must use :mod:`repro.units`
  helpers.
* ``determinism`` — no legacy ``np.random.*`` / stdlib ``random``
  globals, no time-derived seeds, no internal ``default_rng()``
  construction outside ``repro.obs.manifest``.
* ``parity-oracle`` — every vectorized kernel with a ``*_reference`` /
  registered scalar oracle sibling needs a test exercising both.
* ``experiment-contract`` — every registered experiment driver declares
  its CSV schema and constructs a manifest-carrying result.
* ``export-hygiene`` — ``__all__`` consistent with public definitions;
  no mutable default arguments.
* ``driver-telemetry`` — registered drivers open spans and export
  metrics.
* ``resilience`` — no bare ``except:``; retry loops stay bounded.
* ``resource-lifecycle`` — path-sensitive acquire/release balance for
  file handles, fcntl locks, and spans.
* ``seed-taint`` — interprocedural wall-clock/entropy provenance must
  not reach ``ExperimentResult`` / ``seed=`` arguments.
* ``unused-ignore`` — inline suppressions that no longer suppress
  anything are themselves findings.
"""

from repro.analysis.baseline import (
    DEFAULT_BASELINE_PATH,
    baseline_entry,
    fingerprint,
    fingerprint_findings,
    load_baseline,
    save_baseline,
    split_by_baseline,
    stale_entries,
)
from repro.analysis.engine import (
    AnalysisError,
    Finding,
    Rule,
    all_rules,
    analyze_paths,
    collect_files,
    iter_python_files,
    register_rule,
    resolve_rules,
    rule_by_id,
    run_rules,
)
from repro.analysis.reporters import render_json, render_sarif, render_text

# Importing the rules package registers every built-in rule.
from repro.analysis import rules as _rules  # noqa: F401

__all__ = [
    "AnalysisError",
    "DEFAULT_BASELINE_PATH",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "baseline_entry",
    "collect_files",
    "fingerprint",
    "fingerprint_findings",
    "iter_python_files",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "resolve_rules",
    "rule_by_id",
    "run_rules",
    "save_baseline",
    "split_by_baseline",
    "stale_entries",
]

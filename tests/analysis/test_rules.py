"""Rule-level tests against the golden violation corpus."""

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (AnalysisError, all_rules, analyze_paths,
                            collect_files, rule_by_id)

CORPUS = Path(__file__).parent / "corpus"

#: Findings each corpus fixture is designed to produce.  The
#: driver-telemetry count spans two fixtures: contracts_bad/broken.py
#: (2: no span, no metric) and telemetry_bad/dark.py (2 more).  The
#: determinism count includes one deliberate overlap in
#: seedtaint_bad/recorder.py: the per-file rule flags the
#: ``int(time.time())`` assignment while seed-taint flags the sink.
EXPECTED_BY_RULE = {
    "determinism": 5,
    "driver-telemetry": 4,
    "experiment-contract": 5,
    "export-hygiene": 3,
    "parity-oracle": 2,
    "pipe-transfer": 4,
    "resilience": 2,
    "resource-lifecycle": 7,
    "seed-taint": 3,
    "units": 2,
    "unused-ignore": 3,
    "worker-shared-state": 3,
}


def test_registry_exposes_all_rules():
    assert sorted(rule.rule_id for rule in all_rules()) == sorted(
        EXPECTED_BY_RULE)
    assert rule_by_id("units").rule_id == "units"
    with pytest.raises(KeyError):
        rule_by_id("no-such-rule")


def test_rule_by_id_error_lists_known_rules():
    with pytest.raises(KeyError) as exc:
        rule_by_id("no-such-rule")
    message = exc.value.args[0]
    assert "unknown rule 'no-such-rule'" in message
    for rule_id in EXPECTED_BY_RULE:
        assert rule_id in message


def test_corpus_totals_by_rule():
    findings = analyze_paths([CORPUS])
    assert Counter(f.rule for f in findings) == EXPECTED_BY_RULE


def test_good_fixtures_are_clean():
    findings = analyze_paths([CORPUS])
    offenders = [f for f in findings if "good" in f.path]
    assert offenders == []


def test_units_rule_flags_both_checks():
    findings = analyze_paths([CORPUS / "units_bad.py"])
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert any("bare power-of-ten factor" in m for m in messages)
    assert any("unit-suffixed binding 'POWER_BUDGET_W'" in m
               for m in messages)


def test_units_rule_suppression_and_epsilons():
    assert analyze_paths([CORPUS / "units_good.py"]) == []


def test_units_rule_fires_without_suppression(tmp_path):
    clean = (CORPUS / "units_good.py").read_text(encoding="utf-8")
    # Built by concatenation so this line is not itself a suppression.
    marker = "  # lint: " + "ignore[units]"
    stripped = clean.replace(marker, "")
    target = tmp_path / "resuppressed.py"
    target.write_text(stripped, encoding="utf-8")
    findings = analyze_paths([target])
    assert [f.rule for f in findings] == ["units"]


def test_determinism_rule_catalogue():
    findings = analyze_paths([CORPUS / "determinism_bad.py"])
    assert len(findings) == 4
    blob = " | ".join(f.message for f in findings)
    assert "stdlib 'random'" in blob
    assert "np.random.seed" in blob
    assert "internal default_rng()" in blob
    assert "time-derived RNG seed" in blob
    assert analyze_paths([CORPUS / "determinism_good.py"]) == []


def test_parity_rule_untested_pair_and_stale_registry():
    findings = analyze_paths([CORPUS / "parity_bad"])
    assert len(findings) == 2
    blob = " | ".join(f.message for f in findings)
    assert "'assemble' has parity oracle 'assemble_reference'" in blob
    assert "PARITY_ORACLES names 'pack_fast'" in blob


def test_parity_rule_satisfied_by_covering_test():
    assert analyze_paths([CORPUS / "parity_good"]) == []


def test_contract_rule_broken_driver_and_missing_module():
    all_findings = analyze_paths([CORPUS / "contracts_bad"])
    findings = [f for f in all_findings if f.rule == "experiment-contract"]
    # broken.py also trips driver-telemetry (no span, no metric).
    assert len(all_findings) == 7
    assert len(findings) == 5
    blob = " | ".join(f.message for f in findings)
    assert "missing module-level def render()" in blob
    assert "missing non-empty COLUMNS" in blob
    assert "name= must be 'broken'" in blob
    assert "columns=COLUMNS" in blob
    assert "'ghost' has no module ghost.py" in blob


def test_contract_rule_clean_driver():
    assert analyze_paths([CORPUS / "contracts_good"]) == []


def test_export_rule_catalogue():
    findings = analyze_paths([CORPUS / "exports_bad.py"])
    assert len(findings) == 3
    blob = " | ".join(f.message for f in findings)
    assert "__all__ exports 'missing_name'" in blob
    assert "public function 'decode' missing from __all__" in blob
    assert "mutable default argument (list) in encode" in blob
    assert analyze_paths([CORPUS / "exports_good.py"]) == []


def test_resilience_rule_catalogue():
    findings = analyze_paths([CORPUS / "resilience_bad.py"])
    assert len(findings) == 2
    blob = " | ".join(f.message for f in findings)
    assert "bare 'except:'" in blob
    assert "unbounded retry" in blob
    assert analyze_paths([CORPUS / "resilience_good.py"]) == []


def test_resilience_rule_accepts_escaping_while_true(tmp_path):
    target = tmp_path / "pump.py"
    target.write_text(
        "def pump(link):\n"
        "    while True:\n"
        "        try:\n"
        "            link.step()\n"
        "        except TimeoutError:\n"
        "            if link.done():\n"
        "                break\n"
        "            continue\n",
        encoding="utf-8")
    assert analyze_paths([target]) == []


def test_telemetry_rule_dark_driver_and_clean_fixture():
    findings = analyze_paths([CORPUS / "telemetry_bad"])
    assert len(findings) == 2
    blob = " | ".join(f.message for f in findings)
    assert "never opens a span" in blob
    assert "never exports a metric" in blob
    assert analyze_paths([CORPUS / "telemetry_good"]) == []


def test_lifecycle_rule_catalogue():
    findings = analyze_paths([CORPUS / "lifecycle_bad"])
    lifecycle = [f for f in findings if f.rule == "resource-lifecycle"]
    assert len(lifecycle) == 7
    blob = " | ".join(f.message for f in lifecycle)
    assert "shared-memory segment 'seg'" in blob
    assert "not unlinked (or ownership-transferred)" in blob
    assert "file handle 'handle'" in blob
    assert "fcntl lock acquired here is not released with LOCK_UN" in blob
    assert "tracer span 's'" in blob
    # The early-return segment leaks both protocol halves.
    seg_lines = [f.line for f in lifecycle
                 if "segments.py" in f.path and f.line == 15]
    assert len(seg_lines) == 2
    assert analyze_paths([CORPUS / "lifecycle_good"]) == []


def test_transfer_rule_flags_cross_file_spec_builder():
    findings = analyze_paths([CORPUS / "transfer_bad"])
    transfer = [f for f in findings if f.rule == "pipe-transfer"]
    assert len(transfer) == 4
    blob = " | ".join(f.message for f in transfer)
    assert "a lambda (unpicklable callable)" in blob
    assert "the function 'get_pool' (code reference)" in blob
    assert "an instance of project class 'Probe'" in blob
    # The open() handle is found inside the *sibling* builder module:
    # the dispatch is in dispatch.py, the dict literal in probes.py.
    handle = [f for f in transfer if "open file handle" in f.message]
    assert [f.path.rsplit("/", 1)[-1] for f in handle] == ["probes.py"]
    assert analyze_paths([CORPUS / "transfer_good"]) == []


def test_sharedstate_rule_reports_reachability_chain():
    findings = analyze_paths([CORPUS / "sharedstate_bad"])
    shared = [f for f in findings if f.rule == "worker-shared-state"]
    assert len(shared) == 3
    blob = " | ".join(f.message for f in shared)
    assert "mutates module global 'RESULTS' in place (.append())" in blob
    assert "rebinds module global 'TASK_COUNT'" in blob
    # Cross-file write: retune() mutates the sibling module's dict.
    assert "writes into module global 'globalstate.SETTINGS'" in blob
    assert "worker_main -> record" in blob
    assert analyze_paths([CORPUS / "sharedstate_good"]) == []


def test_seedtaint_rule_traces_interprocedural_provenance():
    findings = analyze_paths([CORPUS / "seedtaint_bad"])
    taint = [f for f in findings if f.rule == "seed-taint"]
    assert len(taint) == 3
    blob = " | ".join(f.message for f in taint)
    # Two call-graph hops away, in a sibling module.
    assert "'entropy:session_stamp' via wall_clock_tag" in blob
    assert "tainted local 'seed'" in blob
    assert "'os.urandom()' (wall-clock/entropy source)" in blob
    assert all("ExperimentResult" in f.message for f in taint)
    assert analyze_paths([CORPUS / "seedtaint_good"]) == []


def test_unused_ignore_rule_flags_dead_suppressions():
    findings = analyze_paths([CORPUS / "suppress_bad.py"])
    assert [f.rule for f in findings] == ["unused-ignore"] * 3
    blob = " | ".join(f.message for f in findings)
    assert "suppresses no units finding" in blob
    assert "suppresses no determinism finding" in blob
    assert "suppression names unknown rule 'no-such-rule'" in blob


def test_live_suppression_is_not_reported():
    assert analyze_paths([CORPUS / "suppress_good.py"]) == []


def test_default_scan_skips_corpus_directories():
    files = collect_files([Path(__file__).parent])
    assert files, "the analysis test package itself should be scanned"
    assert all("corpus" not in parsed.path.parts for parsed in files)


def test_syntax_errors_are_analysis_errors(tmp_path):
    bad = tmp_path / "broken_syntax.py"
    bad.write_text("def half:\n", encoding="utf-8")
    with pytest.raises(AnalysisError, match="syntax error"):
        analyze_paths([bad])


def test_missing_path_is_an_analysis_error():
    with pytest.raises(AnalysisError, match="no such path"):
        analyze_paths([CORPUS / "does_not_exist"])


def test_findings_are_sorted_and_stable():
    first = analyze_paths([CORPUS])
    second = analyze_paths([CORPUS])
    assert first == second
    assert first == sorted(first)

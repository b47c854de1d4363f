"""End-to-end tests of ``python -m repro analyze``."""

import json
from pathlib import Path

from repro.cli import main

CORPUS = Path(__file__).parent / "corpus"


def test_corpus_fails_the_gate(capsys):
    code = main(["analyze", str(CORPUS), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[units]" in out
    assert "[determinism]" in out
    assert "[parity-oracle]" in out
    assert "[experiment-contract]" in out
    assert "[export-hygiene]" in out
    assert "[resilience]" in out
    assert "[driver-telemetry]" in out
    assert "[resource-lifecycle]" in out
    assert "[pipe-transfer]" in out
    assert "[worker-shared-state]" in out
    assert "[seed-taint]" in out
    assert "[unused-ignore]" in out
    assert "43 new finding(s)" in out


def test_json_report_structure(tmp_path, capsys):
    report_path = tmp_path / "lint-report.json"
    code = main(["analyze", str(CORPUS), "--no-baseline",
                 "--format", "json", "--output", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["counts"]["new"] == 43
    assert report["counts"]["baselined"] == 0
    assert sorted(rule["id"] for rule in report["rules"]) == [
        "determinism", "driver-telemetry", "experiment-contract",
        "export-hygiene", "parity-oracle", "pipe-transfer",
        "resilience", "resource-lifecycle", "seed-taint", "units",
        "unused-ignore", "worker-shared-state"]
    findings = report["findings"]
    assert len(findings) == 43
    sample = findings[0]
    assert {"path", "line", "col", "rule", "message", "fingerprint",
            "baselined"} <= set(sample)
    assert all(not f["baselined"] for f in findings)
    # stdout also carries the JSON document for piping
    assert json.loads(capsys.readouterr().out)["counts"]["new"] == 43


def test_update_baseline_then_gate_passes(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    code = main(["analyze", str(CORPUS), "--baseline", str(baseline),
                 "--update-baseline"])
    assert code == 0
    document = json.loads(baseline.read_text(encoding="utf-8"))
    assert len(document["entries"]) == 43

    capsys.readouterr()
    code = main(["analyze", str(CORPUS), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 new finding(s), 43 baselined" in out


def test_new_violation_breaks_a_baselined_gate(tmp_path, capsys):
    fixture_dir = tmp_path / "pkg"
    fixture_dir.mkdir()
    target = fixture_dir / "power.py"
    target.write_text("BUDGET_W = 40e-3\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    assert main(["analyze", str(fixture_dir), "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    assert main(["analyze", str(fixture_dir),
                 "--baseline", str(baseline)]) == 0

    capsys.readouterr()
    target.write_text("BUDGET_W = 40e-3\nLIMIT_HZ = 30e3\n",
                      encoding="utf-8")
    code = main(["analyze", str(fixture_dir), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 1
    assert "LIMIT_HZ" in out
    assert "1 new finding(s) (units=1), 1 baselined" in out


def test_analysis_errors_exit_two(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "missing"), "--no-baseline"])
    assert code == 2
    assert "no such path" in capsys.readouterr().err


def test_rule_selection_restricts_the_run(capsys):
    code = main(["analyze", str(CORPUS), "--no-baseline",
                 "--rule", "units", "--rule", "determinism",
                 "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert sorted(rule["id"] for rule in report["rules"]) == [
        "determinism", "units"]
    assert {f["rule"] for f in report["findings"]} == {
        "determinism", "units"}


def test_unknown_rule_exits_two_listing_known_rules(capsys):
    code = main(["analyze", str(CORPUS), "--rule", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown rule 'nope'" in err
    assert "resource-lifecycle" in err


def test_sarif_format_round_trips(tmp_path, capsys):
    report_path = tmp_path / "analysis.sarif"
    code = main(["analyze", str(CORPUS), "--no-baseline",
                 "--format", "sarif", "--output", str(report_path)])
    assert code == 1
    document = json.loads(report_path.read_text(encoding="utf-8"))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analyze"
    assert len(run["results"]) == 43
    assert all(r["baselineState"] == "new" for r in run["results"])
    assert all(r["level"] == "error" for r in run["results"])
    # stdout carries the same document
    assert json.loads(capsys.readouterr().out) == document


def test_graph_dump_json_and_dot(tmp_path, capsys):
    code = main(["analyze", str(CORPUS / "transfer_bad"),
                 "--graph", "json"])
    assert code == 0
    graph = json.loads(capsys.readouterr().out)
    assert ["dispatch:run_tasks", "poolmod:get_pool"] in graph["edges"]

    out_path = tmp_path / "graph.dot"
    code = main(["analyze", str(CORPUS / "transfer_bad"),
                 "--graph", "dot", "--output", str(out_path)])
    assert code == 0
    dot = out_path.read_text(encoding="utf-8")
    assert dot.startswith("digraph callgraph {")
    assert '"dispatch:run_tasks" -> "poolmod:get_pool"' in dot


def test_stale_baseline_entries_are_reported(tmp_path, capsys):
    fixture_dir = tmp_path / "pkg"
    fixture_dir.mkdir()
    target = fixture_dir / "power.py"
    target.write_text("BUDGET_W = 40e-3\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    assert main(["analyze", str(fixture_dir), "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    target.write_text("BUDGET_W = 1\n", encoding="utf-8")

    capsys.readouterr()
    code = main(["analyze", str(fixture_dir),
                 "--baseline", str(baseline)])
    err = capsys.readouterr().err
    assert code == 0
    assert "stale baseline entry" in err
    assert "violation no longer exists" in err


def test_baseline_entry_for_a_deleted_file_is_stale(tmp_path, capsys):
    fixture_dir = tmp_path / "pkg"
    fixture_dir.mkdir()
    (fixture_dir / "power.py").write_text("BUDGET_W = 40e-3\n",
                                          encoding="utf-8")
    (fixture_dir / "other.py").write_text("AREA_M2 = 144e-6\n",
                                          encoding="utf-8")
    gone = fixture_dir / "gone.py"
    gone.write_text("LIMIT_HZ = 30e3\n", encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    assert main(["analyze", str(fixture_dir), "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    gone.unlink()

    # A run restricted to power.py still reports the entry whose file
    # is gone, but says nothing about other.py, which it did not read.
    capsys.readouterr()
    code = main(["analyze", str(fixture_dir / "power.py"),
                 "--baseline", str(baseline)])
    err = capsys.readouterr().err
    assert code == 0
    assert err.count("stale baseline entry") == 1
    assert "gone.py" in err

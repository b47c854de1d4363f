"""Baseline persistence: fingerprints, round-trips, and the gate split."""

from pathlib import Path

import pytest

from repro.analysis import (AnalysisError, Finding, analyze_paths,
                            baseline_entry, collect_files, fingerprint,
                            fingerprint_findings, load_baseline,
                            save_baseline, split_by_baseline, stale_entries)

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_BASELINE = REPO_ROOT / ".analysis-baseline.json"


def _finding(path="pkg/mod.py", line=3, col=8, rule="units",
             message="bare factor"):
    return Finding(path=path, line=line, col=col, rule=rule, message=message)


def test_fingerprint_ignores_line_numbers_and_whitespace():
    assert fingerprint("units", "a.py", "x = rate * 1e3", 0) == fingerprint(
        "units", "a.py", "   x  =  rate *   1e3  ", 0)


def test_fingerprint_distinguishes_rule_path_text_occurrence():
    base = fingerprint("units", "a.py", "x = 1e3", 0)
    assert fingerprint("determinism", "a.py", "x = 1e3", 0) != base
    assert fingerprint("units", "b.py", "x = 1e3", 0) != base
    assert fingerprint("units", "a.py", "x = 1e6", 0) != base
    assert fingerprint("units", "a.py", "x = 1e3", 1) != base


def test_identical_lines_get_distinct_occurrences():
    findings = [_finding(line=3), _finding(line=9)]
    line_text = {("pkg/mod.py", 3): "x = y * 1e3",
                 ("pkg/mod.py", 9): "x = y * 1e3"}
    digests = [d for _, d in fingerprint_findings(findings, line_text)]
    assert len(set(digests)) == 2


def test_committed_baseline_round_trips_byte_identically(tmp_path):
    entries = load_baseline(COMMITTED_BASELINE)
    rewritten = tmp_path / "baseline.json"
    save_baseline(rewritten, entries)
    assert rewritten.read_bytes() == COMMITTED_BASELINE.read_bytes()


def test_committed_baseline_is_empty():
    assert load_baseline(COMMITTED_BASELINE) == []


def test_save_baseline_is_order_insensitive(tmp_path):
    one = baseline_entry(_finding(path="a.py"), "aaaa")
    two = baseline_entry(_finding(path="b.py"), "bbbb")
    first = tmp_path / "ab.json"
    second = tmp_path / "ba.json"
    save_baseline(first, [one, two])
    save_baseline(second, [two, one])
    assert first.read_bytes() == second.read_bytes()


def test_split_by_baseline_partitions():
    keep = _finding(path="old.py")
    fresh = _finding(path="new.py")
    fingerprinted = [(keep, "deadbeef"), (fresh, "0badf00d")]
    entries = [baseline_entry(keep, "deadbeef")]
    new, grandfathered = split_by_baseline(fingerprinted, entries)
    assert [f.path for f, _ in new] == ["new.py"]
    assert [f.path for f, _ in grandfathered] == ["old.py"]


def test_stale_entries_returns_unmatched_baseline_records():
    live = _finding(path="live.py")
    fingerprinted = [(live, "deadbeef")]
    entries = [baseline_entry(live, "deadbeef"),
               baseline_entry(_finding(path="gone.py"), "0badf00d")]
    stale = stale_entries(entries, fingerprinted)
    assert [e["path"] for e in stale] == ["gone.py"]
    assert stale_entries(entries[:1], fingerprinted) == []


def test_committed_baseline_entry_is_still_live():
    """Every grandfathered fingerprint must match a current finding."""
    entries = load_baseline(COMMITTED_BASELINE)
    targets = sorted({REPO_ROOT / str(e["path"]) for e in entries})
    files = collect_files(targets)
    findings = analyze_paths(targets)
    line_text = {(parsed.display_path, number): text
                 for parsed in files
                 for number, text in enumerate(parsed.lines, start=1)}
    fingerprinted = fingerprint_findings(findings, line_text)
    assert stale_entries(entries, fingerprinted) == []


def test_load_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == []


def test_load_baseline_rejects_malformed_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(AnalysisError):
        load_baseline(bad)

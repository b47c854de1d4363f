"""Golden artifacts: CSVs and the event timeline are byte-pinned.

``golden/`` holds the output of::

    python -m repro evaluate table1 fig7 frontier --seed 7 --events \\
        --output-dir tests/experiments/golden

(manifests dropped: they carry timestamps and host details).  Any
change to these drivers' rows, span names, span order, or gauges shows
up here as a byte diff; regenerate the fixtures with the command above
only when the change is intended.  The committed ``results/`` copies of
the same CSVs must match the fixtures too, so a stale artifact there
cannot go unnoticed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

RESULTS = Path(__file__).resolve().parents[2] / "results"

ARTIFACTS = ("table1.csv", "fig7.csv", "frontier.csv", "events.jsonl")


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("golden")
    assert main(["evaluate", "table1", "fig7", "frontier", "--seed", "7",
                 "--events", "--quiet", "--output-dir", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_artifact_matches_golden(regenerated, artifact):
    assert ((regenerated / artifact).read_bytes()
            == (GOLDEN / artifact).read_bytes())


@pytest.mark.parametrize("artifact", [name for name in ARTIFACTS
                                      if name.endswith(".csv")])
def test_committed_result_matches_golden(artifact):
    assert ((RESULTS / artifact).read_bytes()
            == (GOLDEN / artifact).read_bytes())

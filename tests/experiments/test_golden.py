"""Golden artifacts: every paper CSV and the event timeline are
byte-pinned.

One run of every paper driver plus ``frontier``::

    python -m repro evaluate table1 fig4 fig5 fig6 fig7 fig8 fig9 \\
        fig10 fig11 fig12 frontier --seed 7 --events

must write each CSV byte-identical to its committed copy in
``results/`` (the single copy of each paper artifact), and an
``events.jsonl`` byte-identical to ``golden/events.jsonl``.  A change to
any driver's rows, unit conversions, span names, span order or gauges
shows up here as a byte diff.  When the change is intended, rerun the
command above with ``--output-dir results`` for the CSVs and copy its
``events.jsonl`` over ``golden/events.jsonl``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

RESULTS = Path(__file__).resolve().parents[2] / "results"

DRIVERS = ("table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
           "fig10", "fig11", "fig12", "frontier")

#: Artifact -> its committed copy.
ARTIFACTS = {**{f"{name}.csv": RESULTS for name in DRIVERS},
             "events.jsonl": GOLDEN}


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("golden")
    assert main(["evaluate", *DRIVERS, "--seed", "7", "--events",
                 "--quiet", "--output-dir", str(out_dir)]) == 0
    return out_dir


def test_every_csv_is_pinned():
    assert sorted(path.name for path in RESULTS.glob("*.csv")) == \
        sorted(name for name in ARTIFACTS if name.endswith(".csv"))


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_artifact_matches_golden(regenerated, artifact):
    assert ((regenerated / artifact).read_bytes()
            == (ARTIFACTS[artifact] / artifact).read_bytes())

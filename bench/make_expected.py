"""Regenerate the reference outputs in ``bench/expected/``.

    PYTHONPATH=src python -m bench.make_expected

* ``fleet.json``: sha256 of ``fleet.csv`` for every seed in the fleet
  seed pool, each from a serial (``--jobs 1``) run.
* ``design_sweep.json``: the answer digest of every query the design
  sweep can draw, computed in process.

Only regenerate after a change that is meant to alter these outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys

from bench import sweep
from bench.spec import DEFAULT_OUT, EXPECTED
from bench.workloads import FLEET_SESSIONS, fresh_dir, run_child

#: Fleet seeds a run can draw from.
FLEET_SEEDS = range(8)


def fleet_hashes() -> dict[str, str]:
    out_dir = fresh_dir(DEFAULT_OUT / "expected-fleet")
    hashes = {}
    for seed in FLEET_SEEDS:
        child = run_child(["-m", "repro", "fleet", "--seed", str(seed),
                           "--sessions", str(FLEET_SESSIONS), "--jobs", "1",
                           "--quiet", "--output-dir", str(out_dir)],
                          out_dir / "log", timeout_s=600.0)
        if child.returncode != 0:
            raise RuntimeError(f"fleet seed {seed} failed:\n{child.stderr}")
        hashes[str(seed)] = hashlib.sha256(
            (out_dir / "fleet.csv").read_bytes()).hexdigest()
    return hashes


def answer_digests() -> dict[str, str]:
    return {sweep.query_key(query): sweep.digest(sweep.answer(*query))
            for query in sweep.all_queries()}


def main() -> int:
    EXPECTED.mkdir(parents=True, exist_ok=True)
    (EXPECTED / "design_sweep.json").write_text(json.dumps(
        {"digits": sweep.DIGITS, "answers": answer_digests()},
        indent=0, sort_keys=True) + "\n")
    (EXPECTED / "fleet.json").write_text(json.dumps(
        {"sessions": FLEET_SESSIONS, "jobs": 1, "sha256": fleet_hashes()},
        indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

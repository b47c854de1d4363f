"""Warm-run contract: cached artifacts are byte-identical to uncached.

The headline guarantees from the issue's acceptance criteria:

* a warm ``evaluate --seed 7`` writes CSVs byte-identical to a cold
  (and to an entirely uncached) run, with every driver reporting a hit;
* manifests record per-driver hit/miss and key provenance.
"""

from __future__ import annotations

import json

from repro.cache.runner import encode_result
from repro.experiments import ALL_EXPERIMENTS, run_all


def _csv_bytes(directory):
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("*.csv"))}


class TestWarmSerialRuns:
    def test_cold_then_warm_matches_uncached(self, tmp_path):
        plain_dir = tmp_path / "plain"
        cached_dir = tmp_path / "cached"
        run_all(output_dir=plain_dir, seed=7)
        cold = run_all(output_dir=cached_dir, seed=7, cache=True)
        assert all(not r.cache_info["hit"] for r in cold)
        assert _csv_bytes(plain_dir) == _csv_bytes(cached_dir)

        warm = run_all(output_dir=cached_dir, seed=7, cache=True)
        assert all(r.cache_info["hit"] for r in warm)
        assert len(warm) == len(ALL_EXPERIMENTS)
        assert _csv_bytes(plain_dir) == _csv_bytes(cached_dir)
        # Summaries agree up to the JSON encoding (tuples come back as
        # lists; the CSV bytes above are the strict contract).
        assert ([encode_result(r.summary) for r in cold]
                == [encode_result(r.summary) for r in warm])

    def test_different_seed_misses(self, tmp_path):
        run_all(output_dir=tmp_path, seed=7, cache=True)
        other = run_all(output_dir=tmp_path, seed=8, cache=True)
        assert all(not r.cache_info["hit"] for r in other)

    def test_manifests_record_cache_provenance(self, tmp_path):
        run_all(output_dir=tmp_path, seed=7, cache=True)
        warm = run_all(output_dir=tmp_path, seed=7, cache=True)
        for result in warm:
            manifest = json.loads(
                (tmp_path / f"{result.name}.manifest.json").read_text())
            assert manifest["cache"]["hit"] is True
            assert manifest["cache"]["key"] == result.cache_info["key"]
            assert len(manifest["cache"]["fingerprint"]) == 64

    def test_uncached_runs_leave_no_store(self, tmp_path):
        run_all(output_dir=tmp_path, seed=7)
        assert not (tmp_path / ".cache").exists()

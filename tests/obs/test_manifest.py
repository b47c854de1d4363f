"""Tests for run manifests and the process run seed they record."""

import json

import numpy as np
import pytest

from repro import seeds
from repro.obs import manifest
from repro.obs.manifest import build_manifest, write_manifest
from repro.seeds import seeded_rng, set_run_seed


@pytest.fixture(autouse=True)
def clear_seed():
    set_run_seed(None)
    yield
    set_run_seed(None)


class TestRunSeed:
    def test_seed_round_trip(self):
        assert seeds.current_seed() is None
        set_run_seed(123)
        assert seeds.current_seed() == 123

    def test_seeded_rng_is_reproducible(self):
        set_run_seed(7)
        a = seeded_rng().integers(0, 1000, size=8)
        b = seeded_rng().integers(0, 1000, size=8)
        assert np.array_equal(a, b)

    def test_unseeded_rng_still_works(self):
        values = seeded_rng().integers(0, 1000, size=8)
        assert values.shape == (8,)


class TestBuildManifest:
    def test_required_fields_present(self):
        record = build_manifest("fig5", duration_s=1.25)
        for key in ("schema_version", "name", "created_unix_s", "seed",
                    "duration_s", "peak_rss_bytes", "git_sha", "python",
                    "numpy", "platform"):
            assert key in record
        assert record["name"] == "fig5"
        assert record["duration_s"] == 1.25

    def test_seed_defaults_to_run_seed(self):
        set_run_seed(99)
        assert build_manifest("x")["seed"] == 99
        assert build_manifest("x", seed=5)["seed"] == 5

    def test_environment_identity(self):
        record = build_manifest("x")
        assert record["python"].count(".") == 2
        assert record["numpy"] == np.__version__

    def test_extra_fields_merge(self):
        record = build_manifest("x", extra={"n_rows": 12})
        assert record["n_rows"] == 12

    def test_peak_rss_positive_on_linux(self):
        rss = manifest.peak_rss_bytes()
        assert rss is None or rss > 0


class TestWriteManifest:
    def test_writes_json_creating_parents(self, tmp_path):
        target = tmp_path / "deep" / "run.manifest.json"
        path = write_manifest(target, build_manifest("run"))
        assert path == target
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "run"


class TestExperimentResultManifest:
    def test_save_csv_writes_manifest(self, tmp_path):
        from repro.experiments.base import ExperimentResult

        result = ExperimentResult(name="demo", title="Demo",
                                  rows=[{"a": 1}, {"a": 2}],
                                  seed=11, duration_s=0.5)
        result.save_csv(tmp_path)
        assert (tmp_path / "demo.csv").exists()
        loaded = json.loads((tmp_path / "demo.manifest.json").read_text())
        assert loaded["name"] == "demo"
        assert loaded["seed"] == 11
        assert loaded["duration_s"] == 0.5
        assert loaded["n_rows"] == 2
        assert loaded["title"] == "Demo"

import json

import pytest

from bench import layers
from bench.spec import load_spec

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:      1000 |       1000 | site
import time:     20000 |      20000 |   numpy.core
import time:      5000 |      25000 | numpy
import time:      3000 |       3000 |     repro.analysis.engine
import time:      2000 |       5000 |   repro.analysis
import time:      4000 |       9000 | repro
import time:       500 |        500 | bench.traced
"""


def test_import_metrics_sum_self_times_by_package():
    metrics = layers.import_metrics(IMPORTTIME)
    assert metrics["import.modules"] == 6  # bench.* is the tracer's own
    assert metrics["import.wall_s"] == pytest.approx(0.035)
    assert metrics["import.numpy_s"] == pytest.approx(0.025)
    assert metrics["import.repro_s"] == pytest.approx(0.009)
    assert metrics["import.repro_analysis_s"] == pytest.approx(0.005)
    assert metrics["import.scipy_s"] == 0.0


def _record(main, self_s, **extra):
    record = {"pid": 1 if main else 2, "main": main, "flushed_at": 10.0,
              "install_s": 0.01 if main else 0.0, "self_s": self_s,
              "calls": {}, "inclusive_s": {}, "values": {}}
    record.update(extra)
    return record


def test_pass_metrics_cover_every_per_layer_metric(tmp_path):
    records = [
        _record(True, {"cli": 0.1, "core": 0.2, "import": 0.05,
                       "units": 0.01},
                calls={"core.explore.calls": 3},
                values={"cache.gets": 4.0, "cache.hits": 3.0}),
        _record(False, {"fleet": 5.0}, values={"fleet.sessions": 100.0}),
    ]
    (tmp_path / "spans-1.jsonl").write_text(
        "\n".join(json.dumps(r) for r in records) + "\n")
    metrics = layers.pass_metrics(tmp_path, IMPORTTIME, wall_s=0.5,
                                  reaped_at=10.1, traced_op_s=0.55,
                                  untraced_op_s=0.5)
    names = {metric["name"] for metric in load_spec()["per_layer"]}
    assert set(metrics) == names
    assert metrics["core.self_s"] == 0.2
    assert metrics["other.self_s"] == 0.01
    assert metrics["fleet.self_s"] == 5.0  # workers count toward layers
    assert metrics["cache.hit_ratio"] == 0.75
    assert metrics["process.exit_s"] == pytest.approx(0.1)
    # wall - imports - main self (no import layer) - install - exit
    assert metrics["process.unattributed_s"] == pytest.approx(
        0.5 - 0.035 - 0.31 - 0.01 - 0.1)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1)

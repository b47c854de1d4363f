import json

import pytest

from bench import compare
from bench.spec import load_spec, metric_table


def _results(path, wall_s=1.0, error_rate=0.0, seconds=20, trace=False):
    path.mkdir(parents=True, exist_ok=True)
    workload = {"end_to_end": {"wall_s": wall_s, "ops_per_s": 1 / wall_s,
                               "peak_rss_mb": 100.0, "setup_s": 2.0},
                "error_rate": error_rate}
    file = path / "results.json"
    file.write_text(json.dumps({"seconds": seconds, "trace": trace,
                                "workloads": {"paper": workload}}))
    return file


def test_identical_results_pass(tmp_path, capsys):
    a = _results(tmp_path / "a")
    b = _results(tmp_path / "b")
    assert compare.main(a, b) == 0
    assert "regressed" not in capsys.readouterr().out


def _wall_bound():
    return metric_table(load_spec(), "end_to_end")["wall_s"]["bound"]


def test_wall_time_slower_than_its_bound_fails(tmp_path, capsys):
    a = _results(tmp_path / "a", wall_s=1.0)
    b = _results(tmp_path / "b", wall_s=1.0 + _wall_bound() + 0.05)
    assert compare.main(a, b) == 1
    out = capsys.readouterr().out
    assert any("wall_s" in line and "regressed" in line
               for line in out.splitlines())


def test_wall_time_slower_within_its_bound_passes(tmp_path):
    a = _results(tmp_path / "a", wall_s=1.0)
    b = _results(tmp_path / "b", wall_s=1.0 + _wall_bound() - 0.05)
    assert compare.main(a, b) == 0


def test_any_rise_in_error_rate_fails(tmp_path):
    a = _results(tmp_path / "a")
    b = _results(tmp_path / "b", error_rate=0.01)
    assert compare.main(a, b) == 1


def test_throughput_lower_than_its_bound_fails(tmp_path, capsys):
    bound = metric_table(load_spec(), "end_to_end")["ops_per_s"]["bound"]
    a = _results(tmp_path / "a", wall_s=1.0)
    b = _results(tmp_path / "b", wall_s=1.0 / (1.0 - bound - 0.05))
    assert compare.main(a, b) == 1
    assert any("ops_per_s" in line and "regressed" in line
               for line in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("other", [{"seconds": 5}, {"trace": True}])
def test_runs_of_other_length_or_trace_mode_are_refused(tmp_path, capsys,
                                                        other):
    a = _results(tmp_path / "a")
    b = _results(tmp_path / "b", **other)
    assert compare.main(a, b) == 2
    assert "refused" in capsys.readouterr().out


def test_directories_compare_medians_over_runs(tmp_path):
    for index, wall_s in enumerate((1.0, 1.0, 5.0)):  # one outlier run
        _results(tmp_path / "a" / str(index), wall_s=wall_s)
    _results(tmp_path / "b", wall_s=1.05)
    assert compare.main(tmp_path / "a", tmp_path / "b") == 0

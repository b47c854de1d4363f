"""Tests for the reporting utilities."""

import math

from repro.experiments.report import (
    ascii_bars,
    ascii_plot,
    format_table,
    write_csv,
)


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_columns_and_alignment(self):
        rows = [{"name": "BISC", "power": 38.88},
                {"name": "Neuralink", "power": 7.8}]
        text = format_table(rows)
        lines = text.splitlines()
        assert "name" in lines[0] and "power" in lines[0]
        assert "BISC" in lines[2]
        assert "38.880" in text

    def test_bool_rendering(self):
        text = format_table([{"ok": True}, {"ok": False}])
        assert "yes" in text and "no" in text

    def test_inf_rendering(self):
        assert "inf" in format_table([{"x": math.inf}])

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        text = ascii_plot({"series": [(0, 0), (1, 1), (2, 4)]})
        assert "o" in text
        assert "o = series" in text

    def test_skips_infinite(self):
        text = ascii_plot({"s": [(0, 1), (1, math.inf)]})
        assert "inf" not in text.splitlines()[0] or True
        assert "o" in text

    def test_empty_series(self):
        assert ascii_plot({"s": []}) == "(no finite points to plot)"

    def test_y_max_clips(self):
        text = ascii_plot({"s": [(0, 1), (1, 1000)]}, y_max=10)
        assert "1e+03" not in text

    def test_multiple_series_distinct_markers(self):
        text = ascii_plot({"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]})
        assert "o = a" in text and "x = b" in text


class TestAsciiBars:
    def test_values_rendered(self):
        text = ascii_bars({"BISC": 2.0, "Neuralink": 1.0})
        assert "BISC" in text and "#" in text

    def test_reference_marker(self):
        text = ascii_bars({"a": 0.5}, reference=1.0)
        assert "|" in text

    def test_infeasible_label(self):
        assert "(infeasible)" in ascii_bars({"a": math.inf})

    def test_empty(self):
        assert ascii_bars({}) == "(no bars)"


class TestWriteCsv:
    def test_round_trip(self, tmp_path):
        rows = [{"x": 1, "y": "a"}, {"x": 2, "y": "b"}]
        path = write_csv(tmp_path / "out.csv", rows)
        content = path.read_text().strip().splitlines()
        assert content[0] == "x,y"
        assert content[1] == "1,a"

    def test_creates_parents(self, tmp_path):
        path = write_csv(tmp_path / "deep" / "dir" / "out.csv",
                         [{"a": 1}])
        assert path.exists()

    def test_empty_rows(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", [])
        assert path.read_text() == ""

"""Unit tests for the text rendering helpers."""

import numpy as np
import pytest

from repro.core import appclass
from repro.report import figures, tables


class TestRenderTable:
    def test_alignment(self):
        out = tables.render_table(
            ["name", "value"], [("a", 1), ("longer", 22)]
        )
        lines = out.splitlines()
        assert len({len(line) for line in lines}) == 1  # aligned

    def test_title(self):
        out = tables.render_table(["x"], [(1,)], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        out = tables.render_table(["x"], [(1.23456,)])
        assert "1.235" in out

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tables.render_table(["a", "b"], [(1,)])

    def test_table2_contains_hypergiants(self):
        out = tables.render_table2()
        assert "Netflix" in out
        assert "15169" in out
        assert len(out.splitlines()) == 3 + 15  # title + header + rule + rows

    def test_table1_renders_dashes_for_zero(self):
        out = tables.render_table1(appclass.table1_rows())
        assert "-" in out
        assert "gaming" in out
        assert "57" in out


class TestSparkline:
    def test_length_matches_input(self):
        assert len(figures.sparkline([1, 2, 3, 4])) == 4

    def test_empty(self):
        assert figures.sparkline([]) == ""

    def test_constant_series(self):
        line = figures.sparkline([5, 5, 5])
        assert len(set(line)) == 1

    def test_monotone_series_monotone_blocks(self):
        line = figures.sparkline(list(range(9)))
        assert line == "".join(sorted(line))

    def test_pinned_scale(self):
        a = figures.sparkline([0, 1], lo=0, hi=10)
        b = figures.sparkline([0, 10], lo=0, hi=10)
        assert a[1] != b[1]


class TestSeriesTable:
    def test_contains_names_and_values(self):
        out = figures.render_series_table({"alpha": [1.0, 2.0]})
        assert "alpha" in out
        assert "1.00" in out and "2.00" in out

    def test_empty(self):
        assert figures.render_series_table({}) == ""

    def test_shared_scale_toggle(self):
        series = {"a": [0.0, 1.0], "b": [0.0, 100.0]}
        shared = figures.render_series_table(series, shared_scale=True)
        independent = figures.render_series_table(series, shared_scale=False)
        assert shared != independent


class TestHeatmapRow:
    def test_positive_and_negative_glyphs(self):
        row = figures.render_heatmap_row(
            np.array([200.0] * 30 + [-200.0] * 30), cols=20
        )
        assert "#" in row
        assert "=" in row

    def test_zero_is_blank(self):
        row = figures.render_heatmap_row(np.zeros(60), cols=10)
        assert set(row) == {" "}

    def test_downsampled_to_cols(self):
        row = figures.render_heatmap_row(np.ones(119) * 100, cols=17)
        assert len(row) == 17

    def test_empty(self):
        assert figures.render_heatmap_row(np.array([])) == ""


class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        from repro import build_scenario
        from repro.experiments import PipelineConfig, run_fig01, run_table2
        from repro.report.export import export_results

        scenario = build_scenario()
        results = [
            run_fig01(scenario, PipelineConfig.fast()),
            run_table2(),
        ]
        root = tmp_path_factory.mktemp("artifacts")
        return export_results(results, root), results

    def test_summary_index_written(self, exported):
        import json

        root, results = exported
        index = json.loads((root / "summary.json").read_text())
        assert {e["experiment"] for e in index} == {"fig01", "table2"}
        assert all(e["passed"] for e in index)

    def test_metrics_json_round_trips(self, exported):
        import json

        root, results = exported
        payload = json.loads((root / "fig01" / "metrics.json").read_text())
        assert payload["passed"] is True
        assert payload["metrics"] == pytest.approx(results[0].metrics)

    def test_rendered_written(self, exported):
        root, _ = exported
        assert (root / "fig01" / "rendered.txt").read_text().strip()

    def test_series_csv_for_fig01(self, exported):
        root, _ = exported
        csv_path = root / "fig01" / "series.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "isp-ce" in header and "ipx" in header


class TestExportEdgeCases:
    def test_mismatched_series_lengths_skip_csv(self, tmp_path):
        import numpy as np

        from repro.experiments import ExperimentResult
        from repro.report.export import export_result

        result = ExperimentResult(
            "custom", "Custom",
            metrics={"x": 1.0}, checks={"ok": True},
            rendered="sketch",
            data={"short": np.ones(3), "long": np.ones(5)},
        )
        target = export_result(result, tmp_path)
        assert (target / "metrics.json").exists()
        assert not (target / "series.csv").exists()

    def test_non_dict_data_skips_csv(self, tmp_path):
        from repro.experiments import ExperimentResult
        from repro.report.export import export_result

        result = ExperimentResult(
            "custom2", "Custom", metrics={"x": 1.0},
            checks={"ok": True}, rendered="sketch", data=[1, 2, 3],
        )
        target = export_result(result, tmp_path)
        assert not (target / "series.csv").exists()

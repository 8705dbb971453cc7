"""Manifest, structured logging, and telemetry round-trip tests."""

import io
import json
import logging

import pytest

import repro.obs as obs
from repro.obs.manifest import RunManifest, build_manifest, format_manifest
from repro.experiments import PipelineConfig, run_experiment
from repro.report.export import write_run


@pytest.fixture(autouse=True)
def _reset_obs_globals():
    yield
    obs.reset()


class TestManifest:
    def test_build_captures_environment(self):
        manifest = build_manifest([], seed=7, config=PipelineConfig.fast())
        assert manifest.seed == 7
        assert manifest.config["flow_fidelity"] == 0.5
        assert manifest.python
        assert manifest.numpy
        # Running inside this repo, the SHA must resolve to 40 hex chars.
        assert manifest.git_sha is None or len(manifest.git_sha) == 40

    def test_write_and_load_round_trip(self, tmp_path):
        manifest = build_manifest([], seed=3)
        path = manifest.write(tmp_path / "deep" / "telemetry.json")
        loaded = RunManifest.load(path)
        assert loaded.seed == 3
        assert loaded.python == manifest.python

    def test_experiment_outcomes_recorded(self):
        results = [run_experiment("table1"), run_experiment("table2")]
        manifest = build_manifest(results)
        assert set(manifest.experiments) == {"table1", "table2"}
        assert manifest.experiments["table1"]["passed"] is True
        assert manifest.experiments["table1"]["failed_checks"] == []


class TestTelemetryRoundTrip:
    def test_write_run_emits_one_span_per_experiment(self, tmp_path):
        obs.configure(telemetry=True)
        ids = ["table1", "table2"]
        results = [run_experiment(i) for i in ids]
        root = write_run(results, tmp_path / "out")
        with (root / "telemetry.json").open() as handle:
            payload = json.load(handle)
        span_names = [s["name"] for s in payload["trace"]["spans"]]
        assert span_names == [f"experiment/{i}" for i in ids]
        for span in payload["trace"]["spans"]:
            assert span["wall_ms"] >= 0
            assert span["metrics"]["failed-checks"] == 0
        assert payload["metrics"]["counters"]["experiments.runs"] == 2
        # The classic artifacts are still written alongside.
        assert (root / "summary.json").exists()
        assert (root / "table1" / "metrics.json").exists()

    def test_write_run_without_telemetry_still_valid(self, tmp_path):
        results = [run_experiment("table2")]
        root = write_run(results, tmp_path / "out")
        payload = json.loads((root / "telemetry.json").read_text())
        assert payload["trace"]["spans"] == []
        assert payload["experiments"]["table2"]["passed"] is True

    def test_format_manifest_renders_tree_and_counters(self, tmp_path):
        obs.configure(telemetry=True)
        results = [run_experiment("table1")]
        manifest = build_manifest(results, seed=1)
        rendered = format_manifest(manifest.to_dict(), top=3)
        assert "experiment/table1" in rendered
        assert "span tree" in rendered
        assert "top counters" in rendered
        assert "experiments.runs" in rendered


class TestStructuredLogging:
    def test_json_events_with_fields(self):
        stream = io.StringIO()
        obs.configure(telemetry=False, log_level="info", log_stream=stream)
        logger = obs.get_logger("test")
        obs.log_event(
            logger, "experiment-failed", level=logging.WARNING,
            experiment="fig09", failed_checks=["a", "b"],
        )
        event = json.loads(stream.getvalue())
        assert event["event"] == "experiment-failed"
        assert event["level"] == "warning"
        assert event["logger"] == "repro.test"
        assert event["failed_checks"] == ["a", "b"]

    def test_level_filtering(self):
        stream = io.StringIO()
        obs.configure(telemetry=False, log_level="error", log_stream=stream)
        obs.get_logger("test").warning("dropped")
        assert stream.getvalue() == ""

    def test_reconfigure_does_not_duplicate_handlers(self):
        stream = io.StringIO()
        obs.configure(telemetry=False, log_level="info", log_stream=stream)
        obs.configure(telemetry=False, log_level="info", log_stream=stream)
        obs.get_logger().info("once")
        assert len(stream.getvalue().strip().splitlines()) == 1

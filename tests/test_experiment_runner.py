"""Tests for the scenario-grid Experiment runner and its CLI."""

import datetime as dt
import json

import pytest

from repro.experiments import PipelineConfig
from repro.experiments.runner import (
    Experiment,
    format_grid_manifest,
    load_grid,
    measure_expectation,
    repeat_seed,
)
from repro.synth import datasets
from repro.synth.events import DemandShift, Envelope, envelope_for
from repro.synth.scenario import build_scenario
from repro.synth.seeds import child_seed
from repro.synth.spec import Expectation, ScenarioSpec

D = dt.date

#: Tiny populations: enough structure for hourly series and flows.
SMALL = {"n_enterprise": 12, "n_hosting": 5}


def small_spec(**kwargs):
    return ScenarioSpec(**{**SMALL, **kwargs})


class TestRepeatSeed:
    def test_repeat_zero_keeps_spec_seed(self):
        spec = small_spec(seed=42)
        assert repeat_seed(spec, 0) == 42

    def test_later_repeats_derive_child_seeds(self):
        spec = small_spec(seed=42)
        seeds = [repeat_seed(spec, r) for r in range(5)]
        assert len(set(seeds)) == 5
        assert seeds[1] == child_seed(42, "repeat-1")

    def test_repeats_change_the_fingerprint(self):
        spec = small_spec()
        derived = spec.with_seed(repeat_seed(spec, 1))
        assert derived.fingerprint != spec.fingerprint


class TestMeasureExpectation:
    def test_planted_surge_rederived_blind(self):
        # Plant a 1.8x surge on the CE ISP for one week; the measured
        # window/baseline ratio must recover it from the hourly series
        # alone (modulated by the organic lockdown response).
        spec = small_spec(
            events=(
                DemandShift(
                    envelope=envelope_for(D(2020, 2, 5), D(2020, 2, 11)),
                    magnitude=1.8,
                    vantages=("isp-ce",),
                ),
            )
        )
        scenario = build_scenario(spec=spec)
        expectation = Expectation(
            kind="volume-shift",
            vantage="isp-ce",
            window=(D(2020, 2, 5), D(2020, 2, 11)),
            baseline=(D(2020, 1, 22), D(2020, 1, 28)),
            min_ratio=1.6,
            max_ratio=2.0,
        )
        ratio = measure_expectation(scenario, expectation)
        assert 1.6 <= ratio <= 2.0

    def test_no_event_means_flat_ratio(self):
        scenario = build_scenario(spec=small_spec())
        expectation = Expectation(
            kind="volume-shift",
            vantage="isp-ce",
            window=(D(2020, 2, 5), D(2020, 2, 11)),
            baseline=(D(2020, 1, 22), D(2020, 1, 28)),
            min_ratio=0.9,
            max_ratio=1.1,
        )
        ratio = measure_expectation(scenario, expectation)
        assert 0.9 <= ratio <= 1.1

    def test_flow_shift_goes_through_the_dataset_cache(self):
        scenario = build_scenario(spec=small_spec())
        expectation = Expectation(
            kind="flow-shift",
            vantage="isp-ce",
            window=(D(2020, 3, 25), D(2020, 3, 26)),
            baseline=(D(2020, 2, 19), D(2020, 2, 20)),
            min_ratio=1.0,
        )
        cache = datasets.DatasetCache()
        with datasets.use_cache(cache):
            ratio = measure_expectation(
                scenario, expectation, PipelineConfig.fast()
            )
        assert ratio > 1.0  # lockdown week carries more bytes
        assert cache.stats.misses == 2  # window + baseline tables


class TestExperimentGrid:
    def grid(self, nb_repeats=2):
        baseline = small_spec(name="baseline")
        surged = small_spec(
            name="flash-crowd",
            events=(
                DemandShift(
                    envelope=Envelope(
                        D(2020, 2, 5), plateau_days=7, decay_days=0
                    ),
                    magnitude=2.0,
                    vantages=("isp-ce",),
                ),
            ),
            expectations=(
                Expectation(
                    kind="volume-shift",
                    vantage="isp-ce",
                    window=(D(2020, 2, 5), D(2020, 2, 11)),
                    baseline=(D(2020, 1, 22), D(2020, 1, 28)),
                    min_ratio=1.7,
                ),
            ),
        )
        return Experiment(
            [baseline, surged],
            nb_repeats=nb_repeats,
            experiment_ids=["fig02"],
            config=PipelineConfig.fast(),
            name="unit-grid",
        )

    def test_grid_manifest_shape(self):
        manifest = self.grid().run()
        assert manifest["schema"].endswith("experiment-grid@1")
        assert manifest["nb_repeats"] == 2
        assert set(manifest["scenarios"]) == {"baseline", "flash-crowd"}
        baseline = manifest["scenarios"]["baseline"]
        assert len(baseline["seeds"]) == 2
        assert len(set(baseline["fingerprints"])) == 2  # reseeded worlds
        fig02 = baseline["experiments"]["fig02"]
        assert fig02["repeats"] == 2
        assert fig02["pass_rate"] == 1.0
        for stats in fig02["metrics"].values():
            assert stats["min"] <= stats["mean"] <= stats["max"]
        assert manifest["passed"] is True
        # The whole manifest is JSON-serializable as-is.
        json.dumps(manifest)

    def test_expectations_evaluated_per_repeat(self):
        manifest = self.grid().run()
        expectation = manifest["scenarios"]["flash-crowd"]["expectations"][0]
        assert len(expectation["ratios"]) == 2
        assert expectation["passed"] is True
        assert expectation["pass_rate"] == 1.0

    def test_failed_expectation_fails_the_grid(self):
        spec = small_spec(
            name="impossible",
            expectations=(
                Expectation(
                    kind="volume-shift",
                    vantage="isp-ce",
                    window=(D(2020, 2, 5), D(2020, 2, 11)),
                    baseline=(D(2020, 1, 22), D(2020, 1, 28)),
                    min_ratio=50.0,  # nothing organic gets close
                ),
            ),
        )
        experiment = Experiment(
            [spec], experiment_ids=[], config=PipelineConfig.fast()
        )
        manifest = experiment.run()
        assert manifest["passed"] is False
        entry = manifest["scenarios"]["impossible"]
        assert entry["expectations"][0]["passed"] is False
        assert "MISS" in format_grid_manifest(manifest)

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(ValueError):
            Experiment([small_spec(), small_spec()])

    def test_scenario_dicts_are_parsed(self):
        experiment = Experiment([{**SMALL, "name": "from-dict"}])
        assert experiment.scenarios_list[0].name == "from-dict"

    def test_cache_shared_across_runs(self):
        spec = small_spec(
            name="cached",
            expectations=(
                Expectation(
                    kind="flow-shift",
                    vantage="isp-ce",
                    window=(D(2020, 3, 25), D(2020, 3, 26)),
                    baseline=(D(2020, 2, 19), D(2020, 2, 20)),
                    min_ratio=1.0,
                ),
            ),
        )
        experiment = Experiment(
            [spec], experiment_ids=[], config=PipelineConfig.fast()
        )
        experiment.run()
        misses = experiment.cache.stats.misses
        experiment.run()  # identical worlds: everything served from cache
        assert experiment.cache.stats.misses == misses
        assert experiment.cache.stats.hits >= 2


class TestProcessExecution:
    """Grid cells fanned out to processes must match serial runs exactly."""

    def test_grid_cells_across_processes_match_serial(self):
        from repro.query import procpool

        if not procpool.processes_supported():
            pytest.skip("no fork/forkserver start method")
        spec = small_spec(
            name="cells",
            expectations=(
                Expectation(
                    kind="volume-shift",
                    vantage="isp-ce",
                    window=(D(2020, 2, 5), D(2020, 2, 11)),
                    baseline=(D(2020, 1, 22), D(2020, 1, 28)),
                    min_ratio=0.5,
                ),
            ),
        )
        serial = Experiment(
            [spec], nb_repeats=2, experiment_ids=[],
            config=PipelineConfig.fast(),
        ).run()
        fanned = Experiment(
            [spec], nb_repeats=2, experiment_ids=[],
            config=PipelineConfig.fast(), cell_procs=2,
        ).run()
        assert fanned["cell_pool"] == "process"
        assert fanned["cell_procs"] == 2
        serial_entry = serial["scenarios"]["cells"]
        fanned_entry = fanned["scenarios"]["cells"]
        assert fanned_entry["seeds"] == serial_entry["seeds"]
        assert fanned_entry["fingerprints"] == serial_entry["fingerprints"]
        assert (
            fanned_entry["expectations"][0]["ratios"]
            == serial_entry["expectations"][0]["ratios"]
        )

    def test_cell_procs_validated(self):
        with pytest.raises(ValueError):
            Experiment([small_spec()], cell_procs=0)


class TestGridSpecFiles:
    def test_example_grid_loads(self):
        grid = load_grid("examples/experiment_grid.py")
        assert grid["name"] == "lockdown-variants"
        names = [spec.name for spec in grid["scenarios"]]
        assert names == ["baseline", "campus-collapse", "ixp-se-outage"]
        for spec in grid["scenarios"]:
            assert spec.expectations  # every scenario plants shifts

    def test_scenarios_list_form(self, tmp_path):
        path = tmp_path / "grid.py"
        path.write_text(
            "SCENARIOS = [{'name': 'only', 'n_enterprise': 12,"
            " 'n_hosting': 5}]\n"
        )
        grid = load_grid(path)
        assert grid["name"] == "grid"
        assert grid["repeats"] is None
        assert grid["scenarios"][0].name == "only"

    def test_empty_spec_file_rejected(self, tmp_path):
        path = tmp_path / "empty.py"
        path.write_text("x = 1\n")
        with pytest.raises(ValueError):
            load_grid(path)


class TestExperimentCLI:
    def write_grid(self, tmp_path):
        path = tmp_path / "grid.py"
        path.write_text(
            "GRID = {\n"
            "    'name': 'cli-grid',\n"
            "    'repeats': 1,\n"
            "    'scenarios': [{\n"
            "        'name': 'tiny', 'n_enterprise': 12, 'n_hosting': 5,\n"
            "        'experiments': ['fig02'],\n"
            "        'expect': [{\n"
            "            'kind': 'volume-shift', 'vantage': 'isp-ce',\n"
            "            'window': ['2020-03-25', '2020-03-31'],\n"
            "            'baseline': ['2020-02-19', '2020-02-25'],\n"
            "            'min_ratio': 1.05,\n"
            "        }],\n"
            "    }],\n"
            "}\n"
        )
        return path

    def test_cli_runs_grid_and_writes_manifest(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_grid(tmp_path)
        out = tmp_path / "manifest.json"
        code = main([
            "experiment", str(path), "--fast", "-o", str(out)
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "cli-grid" in captured.out
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["scenarios"]["tiny"]["passed"] is True

    def test_cli_rejects_bad_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "broken.py"
        path.write_text("x = 1\n")
        assert main(["experiment", str(path)]) == 2

    def test_cli_rejects_bad_repeats(self, tmp_path):
        from repro.cli import main

        path = self.write_grid(tmp_path)
        assert main(["experiment", str(path), "--repeats", "0"]) == 2

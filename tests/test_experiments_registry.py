"""The declarative experiment registry and ``run_all``."""

from __future__ import annotations

import inspect

import pytest

from repro import experiments
from repro.experiments import base as experiments_base
from repro.experiments.base import REGISTRY, ExperimentSpec

#: The paper's figure/table/discussion set, in paper order.
PAPER_IDS = [
    "fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
    "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "table1", "table2", "disc09",
]


class TestRegistryCompleteness:
    def test_ids_match_the_paper_set_in_order(self):
        assert list(REGISTRY) == PAPER_IDS

    def test_specs_are_fully_populated(self):
        for spec in REGISTRY.values():
            assert isinstance(spec, ExperimentSpec)
            assert spec.title
            assert spec.anchor
            assert callable(spec.runner)
            assert callable(spec.datasets)

    def test_anchors_follow_paper_naming(self):
        for spec in REGISTRY.values():
            if spec.id.startswith("fig"):
                assert spec.anchor == f"Fig. {int(spec.id[3:])}"
            elif spec.id.startswith("table"):
                assert spec.anchor == f"Table {spec.id[5:]}"
            else:
                assert spec.anchor == "§9"

    def test_only_tables_skip_the_scenario(self):
        no_scenario = {
            spec.id for spec in REGISTRY.values() if not spec.needs_scenario
        }
        assert no_scenario == {"table1", "table2"}

    def test_get_spec_rejects_unknown_ids(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            experiments_base.get_spec("fig99")

    def test_register_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="registered twice"):
            experiments_base.register("fig01", "dup", "Fig. 1")(
                lambda scenario, config=None: None
            )

    def test_resolve_specs_preserves_request_order(self):
        specs = experiments_base.resolve_specs(["table2", "fig03"])
        assert [spec.id for spec in specs] == ["table2", "fig03"]


class TestDatasetDeclarations:
    def test_flow_experiments_declare_datasets(self, scenario, fast_config):
        declared = {
            spec.id: spec.dataset_requests(scenario, fast_config)
            for spec in REGISTRY.values()
        }
        for experiment_id in ("fig04", "fig05", "fig06", "fig07",
                              "fig08", "fig09", "fig10", "fig11",
                              "fig12", "disc09"):
            assert declared[experiment_id], experiment_id
        for experiment_id in ("table1", "table2"):
            assert declared[experiment_id] == ()

    def test_shared_weeks_share_request_keys(self, scenario, fast_config):
        def keys(experiment_id):
            return set(
                REGISTRY[experiment_id].dataset_requests(
                    scenario, fast_config
                )
            )

        # Figs 11/12 share the EDU capture; Fig 5 and §9 share the
        # link-utilization days; Figs 7/10 share the IXP-CE weeks.
        assert keys("fig11") == keys("fig12")
        assert keys("fig05") == keys("disc09")
        ixp_port_weeks = {
            r for r in keys("fig07") if r.vantage == "ixp-ce"
        }
        assert ixp_port_weeks == keys("fig10")


class TestExecutors:
    @pytest.fixture
    def crashing_spec(self, monkeypatch):
        def boom(scenario, config=None):
            raise RuntimeError("boom")

        spec = ExperimentSpec(
            id="boom", title="Boom", anchor="Fig. 0", runner=boom,
            needs_scenario=False,
        )
        monkeypatch.setitem(REGISTRY, spec.id, spec)
        return spec

    def test_serial_raises_by_default(self, crashing_spec):
        with pytest.raises(RuntimeError, match="boom"):
            experiments.run_all(experiment_ids=["boom"])

    def test_serial_capture_yields_failed_result(self, crashing_spec):
        (result,) = experiments.run_all(
            experiment_ids=["boom"], on_error="capture"
        )
        assert not result.passed
        assert result.failed_checks() == ["experiment crashed"]
        assert "RuntimeError" in result.rendered

    def test_parallel_capture_keeps_other_results(self, crashing_spec):
        results = experiments.run_all(
            experiment_ids=["table1", "boom", "table2"], jobs=3,
            on_error="capture",
        )
        assert [r.experiment_id for r in results] == [
            "table1", "boom", "table2"
        ]
        assert results[0].passed and results[2].passed
        assert not results[1].passed

    def test_run_experiment_runs_tables_without_scenario(self):
        result = experiments.run_experiment("table2")
        assert result.passed


class TestPipelineShim:
    """Every runner keeps the ``(scenario, config)`` call shape."""

    def test_runner_signatures_keep_scenario_config_shape(self):
        for spec in REGISTRY.values():
            params = list(
                inspect.signature(spec.runner).parameters.values()
            )
            assert params[0].name == "scenario"
            assert params[1].name == "config"

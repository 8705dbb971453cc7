"""Integration tests: every experiment reproduces the paper's shape.

These run the full pipeline (generation + analysis) per figure/table at
test fidelity and assert the paper's qualitative findings hold.  They
are the codified version of EXPERIMENTS.md.
"""

import pytest

from repro import experiments
from repro.experiments import REGISTRY, ExperimentResult, PipelineConfig


@pytest.fixture(scope="module")
def results(scenario, fast_config):
    return {
        experiment_id: experiments.run_experiment(
            experiment_id, scenario, fast_config
        )
        for experiment_id in REGISTRY
    }


@pytest.mark.parametrize("experiment_id", list(REGISTRY))
def test_experiment_checks_pass(results, experiment_id):
    result = results[experiment_id]
    assert result.passed, (
        f"{experiment_id} failed checks: {result.failed_checks()}\n"
        f"metrics: {result.metrics}"
    )


@pytest.mark.parametrize("experiment_id", list(REGISTRY))
def test_experiment_renders(results, experiment_id):
    assert results[experiment_id].rendered.strip()


class TestHeadlineNumbers:
    """Spot-check measured values against the paper's reported ones."""

    def test_isp_growth_more_than_20_percent(self, results):
        assert results["fig03"].metrics["isp-ce/stage1"] > 0.15

    def test_isp_falls_back_toward_6_percent(self, results):
        assert results["fig03"].metrics["isp-ce/stage3"] < 0.16

    def test_ixp_us_initially_flat(self, results):
        assert abs(results["fig03"].metrics["ixp-us/stage1"]) < 0.08

    def test_hypergiant_share_near_75(self, results):
        assert 0.55 <= results["fig04"].metrics["hypergiant-share"] <= 0.85

    def test_capacity_upgrades_1500_gbps(self, results):
        assert results["fig05"].metrics["capacity-upgrades-gbps"] == 1500

    def test_webconf_exceeds_200_percent(self, results):
        assert results["fig09"].metrics["isp-ce/webconf"] >= 2.0

    def test_domain_vpn_exceeds_200_percent(self, results):
        assert results["fig10"].metrics["domain/march"] >= 1.5

    def test_edu_drop_near_55(self, results):
        assert 0.30 <= results["fig11"].metrics["max-workday-drop"] <= 0.65

    def test_edu_class_growth_ordering(self, results):
        metrics = results["fig12"].metrics
        assert (
            metrics["ssh/in-growth"]
            > metrics["remote-desktop/in-growth"]
            > metrics["vpn/in-growth"]
            > metrics["web/in-growth"]
        )

    def test_edu_total_growth_near_24_percent(self, results):
        assert 0.95 <= results["fig12"].metrics["total-growth"] <= 1.6


class TestRunnerAPI:
    def test_unknown_experiment_rejected(self, scenario):
        with pytest.raises(ValueError):
            experiments.run_experiment("fig99", scenario)

    def test_tables_need_no_scenario(self):
        result = experiments.run_experiment("table2")
        assert result.passed

    def test_result_failed_checks_listing(self, results):
        result = results["fig01"]
        assert result.failed_checks() == []

    def test_fast_config_values(self):
        config = PipelineConfig.fast()
        assert config.flow_fidelity < PipelineConfig().flow_fidelity


class TestExperimentResultPassed:
    """Regression: empty checks must not read as a pass.

    An experiment that crashes before recording any check produces an
    empty dict, and ``all({})`` is vacuously true."""

    def test_empty_checks_is_not_passed(self):
        assert not ExperimentResult("x", "crashed early").passed

    def test_all_true_checks_pass(self):
        result = ExperimentResult("x", "t", checks={"a": True, "b": True})
        assert result.passed

    def test_any_false_check_fails(self):
        result = ExperimentResult("x", "t", checks={"a": True, "b": False})
        assert not result.passed
        assert result.failed_checks() == ["b"]


class TestExperimentTracing:
    """The run_* decorator records one span per executed experiment."""

    def test_span_recorded_with_check_counts(self):
        import repro.obs as obs

        obs.configure(telemetry=True)
        try:
            result = experiments.run_experiment("table1")
            spans = obs.get_tracer().to_dict()["spans"]
            assert [s["name"] for s in spans] == ["experiment/table1"]
            assert spans[0]["metrics"]["checks"] == len(result.checks)
            registry = obs.get_registry()
            assert registry.counter("experiments.runs").value == 1
        finally:
            obs.reset()

    def test_disabled_by_default_records_nothing(self):
        import repro.obs as obs

        experiments.run_experiment("table2")
        assert obs.get_tracer().to_dict() == {"spans": []}


class TestSeedRobustness:
    """The findings must not be artifacts of one RNG stream."""

    @pytest.fixture(scope="class")
    def alt_scenarios(self):
        from repro import build_scenario

        return {seed: build_scenario(seed=seed) for seed in (777, 1234, 987654)}

    @staticmethod
    def _assert_holds(experiment_id, scenarios, config):
        for seed, scenario in scenarios.items():
            result = experiments.run_experiment(experiment_id, scenario, config)
            assert result.passed, (seed, result.failed_checks())

    def test_fig03_holds_for_alternate_seed(self, alt_scenarios, fast_config):
        self._assert_holds("fig03", alt_scenarios, fast_config)

    def test_fig10_holds_for_alternate_seed(self, alt_scenarios, fast_config):
        self._assert_holds("fig10", alt_scenarios, fast_config)

    def test_fig12_holds_for_alternate_seed(self, alt_scenarios, fast_config):
        self._assert_holds("fig12", alt_scenarios, fast_config)


class TestPaperReferenceConsistency:
    """The CLI's paper-reference annotations must point at metrics that
    the experiments actually produce."""

    def test_reference_keys_exist_in_metrics(self, results):
        from repro.cli import PAPER_REFERENCE

        for experiment_id, references in PAPER_REFERENCE.items():
            metrics = results[experiment_id].metrics
            for metric_name in references:
                assert metric_name in metrics, (
                    f"{experiment_id}: PAPER_REFERENCE names unknown "
                    f"metric {metric_name!r}"
                )

    def test_every_experiment_has_metrics_and_checks(self, results):
        for experiment_id, result in results.items():
            assert result.metrics, f"{experiment_id} reports no metrics"
            assert result.checks, f"{experiment_id} asserts nothing"

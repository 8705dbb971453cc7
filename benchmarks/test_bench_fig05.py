"""Benchmark: regenerate Fig 5 — link-utilization ECDFs at the IXP-CE.

Reproduces the per-member daily minimum/average/maximum utilization
ECDFs for a base-week workday vs. a stage-2 workday: all three curves
shift right, and ~1,500 Gbps of member port upgrades land during the
lockdown window.
"""

from repro.experiments import run_fig05


def test_fig05_link_utilization(benchmark, scenario, config, report):
    result = benchmark(run_fig05, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

"""Benchmark: regenerate Fig 1 — weekly normalized traffic volume.

Reproduces the paper's headline time series: daily traffic averaged per
calendar week, normalized by the third week of January, for the ISP,
the three IXPs, the mobile operator, and the roaming exchange.
"""

from repro.experiments import run_fig01


def test_fig01_weekly_traffic(benchmark, scenario, config, report):
    result = benchmark(run_fig01, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

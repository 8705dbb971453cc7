"""Benchmark: regenerate Fig 2 — the drastic usage-pattern shift.

Reproduces the hourly profiles of Wed Feb 19 / Sat Feb 22 / Wed Mar 25
(Fig 2a) and the workday-like vs. weekend-like day classification over
January-May for ISP-CE and IXP-CE (Figs 2b, 2c).
"""

from repro.experiments import run_fig02


def test_fig02_pattern_shift(benchmark, scenario, config, report):
    result = benchmark(run_fig02, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

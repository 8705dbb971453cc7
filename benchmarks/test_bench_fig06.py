"""Benchmark: regenerate Fig 6 — traffic shift vs. residential shift.

Reproduces the per-AS scatter of normalized total volume change against
the change in traffic exchanged with eyeball networks (February vs.
March): the correlated majority, the x-axis transit band, and the
top-left quadrant of businesses that shrink overall while their
residential traffic grows.
"""

from repro.experiments import run_fig06


def test_fig06_remote_work_scatter(benchmark, scenario, config, report):
    result = benchmark(run_fig06, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

"""Benchmark: regenerate Fig 4 — hypergiants vs. other ASes.

Reproduces the normalized weekly growth of hypergiant-sourced traffic
against all other ASes at the ISP-CE, per daypart and day kind: the
other-AS curves dominate after the lockdown, and the hypergiants show
the week-12-to-13 stabilization/decline following the video-resolution
reduction.
"""

from repro.experiments import run_fig04


def test_fig04_hypergiants(benchmark, scenario, config, report):
    result = benchmark(run_fig04, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

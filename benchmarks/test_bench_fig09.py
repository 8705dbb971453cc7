"""Benchmark: regenerate Fig 9 — application-class heatmaps.

Reproduces the nine-class heatmaps (base week plus stage-1/stage-2
differences, early-morning hours removed, clipped to [-100%, +200%])
for all four vantage points, and the §5 statements: webconf >+200%
during business hours, the EU/US messaging-email anti-pattern, VoD up
in Europe but down at IXP-US, educational traffic surging at the
ISP-CE while falling in the US, gaming growing coherently at the IXPs,
and the social-media spike flattening in stage 2.
"""

from repro.experiments import run_fig09


def test_fig09_app_class_heatmaps(benchmark, scenario, config, report):
    result = benchmark(run_fig09, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

"""Benchmark: regenerate Fig 8 — gaming at the IXP-SE.

Reproduces the gaming application class's unique-IP and volume series
over weeks 7-17 (normalized to the period minimum, with daily
min/avg/max envelopes): the steep rise from the lockdown week and the
two-day dip matching the gaming-provider outage.
"""

from repro.experiments import run_fig08


def test_fig08_gaming(benchmark, scenario, config, report):
    result = benchmark(run_fig08, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

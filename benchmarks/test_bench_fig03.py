"""Benchmark: regenerate Fig 3 — four-week macroscopic traffic shifts.

Reproduces the §3.1 growth numbers: >+20% at the ISP-CE, +30/2/12% at
IXP-CE/US/SE after the lockdown, decaying to ~+6% at the ISP while
persisting at the IXPs; also checks that the IXPs' minimum traffic
levels rise (correlating with the port-capacity upgrades).
"""

from repro.experiments import run_fig03


def test_fig03_macro_weeks(benchmark, scenario, config, report):
    result = benchmark(run_fig03, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

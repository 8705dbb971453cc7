"""Benchmark: regenerate Fig 7 — traffic by top application ports.

Reproduces the per-hour workday/weekend port series for the top 3-12
transport keys at ISP-CE and IXP-CE across the February/March/April
weeks, and the §4 per-port statements (QUIC +30-80%, UDP/4500 up on
workdays only, TCP/8080 flat, GRE/ESP down at the IXP, Zoom up an
order of magnitude at the ISP, IMAP-TLS +60%).
"""

from repro.experiments import run_fig07


def test_fig07_port_analysis(benchmark, scenario, config, report):
    result = benchmark(run_fig07, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

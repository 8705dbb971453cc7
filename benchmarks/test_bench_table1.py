"""Benchmark: regenerate Table 1 — the application-class filter matrix.

Verifies the reproduction's filter definitions match the paper's
counts exactly (per class: number of filters, distinct ASNs, distinct
transport ports; 53 combinations in total).
"""

from repro.experiments import run_table1


def test_table1_filters(benchmark, report):
    result = benchmark(run_table1)
    report(result)
    assert result.passed, result.failed_checks()

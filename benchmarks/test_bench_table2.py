"""Benchmark: regenerate Table 2 — the hypergiant AS list.

Verifies the registry reproduces the paper's Appendix A table verbatim
(15 organizations with their ASNs).
"""

from repro.experiments import run_table2


def test_table2_hypergiants(benchmark, report):
    result = benchmark(run_table2)
    report(result)
    assert result.passed, result.failed_checks()

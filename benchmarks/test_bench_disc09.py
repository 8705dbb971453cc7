"""Benchmark: reproduce the §9 discussion's growth decomposition.

Quantifies "taming the traffic increase": lockdown growth fills the
daytime valleys while the provisioning-relevant evening peak grows far
less; individual IXP members grow way beyond the 15-20% aggregate, and
some are pushed past a 80%-utilization planning threshold — matching
the observed wave of port upgrades.
"""

from repro.experiments import run_disc09


def test_disc09_peak_valley(benchmark, scenario, config, report):
    result = benchmark(run_disc09, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

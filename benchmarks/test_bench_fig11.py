"""Benchmark: regenerate Fig 11 — EDU volume and directionality.

Reproduces the educational network's normalized daily volumes for the
base/transition/online-lecturing weeks (workday drop of up to ~55%,
weekends roughly stable) and the ingress/egress byte ratio collapsing
from ~15x toward parity.
"""

from repro.experiments import run_fig11


def test_fig11_edu_volume(benchmark, scenario, config, report):
    result = benchmark(run_fig11, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

"""Benchmark: regenerate Fig 10 — the VPN traffic shift at the IXP-CE.

Reproduces the port-based vs. domain-based VPN identification over the
February/March/April weeks: the domain-based view (TCP/443 to *vpn*
hosts mined from the corpus, www-collisions eliminated) grows by more
than 200% during working hours while the port-based view stays
comparatively flat, with weaker weekend growth and a partial recession
in April.
"""

from repro.experiments import run_fig10


def test_fig10_vpn_shift(benchmark, scenario, config, report):
    result = benchmark(run_fig10, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

"""Benchmark: regenerate Fig 12 — EDU connection-level analysis.

Reproduces the daily connection growth per Appendix B traffic class:
incoming web 1.7x, email 1.8x, VPN 4.8x, remote desktop 5.9x, SSH 9.1x;
outgoing push/Spotify collapsing; ~39% of flows with undeterminable
direction; median incoming connections doubling while outgoing nearly
halve and the total grows ~24%.
"""

from repro.experiments import run_fig12


def test_fig12_edu_connections(benchmark, scenario, config, report):
    result = benchmark(run_fig12, scenario, config)
    report(result)
    assert result.passed, result.failed_checks()

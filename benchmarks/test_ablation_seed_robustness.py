"""Ablation: seed robustness of the headline findings.

A reproduction whose findings hinge on one RNG stream would be
worthless.  This ablation rebuilds the world under three different
seeds and re-checks the §3.1 growth bands and the Fig 10 VPN contrast.
"""

import pytest

from repro import build_scenario
from repro.experiments import PipelineConfig, run_fig03, run_fig10

SEEDS = (20200316, 1234, 987654)


def run_seeds():
    config = PipelineConfig.fast()
    results = {}
    for seed in SEEDS:
        scenario = build_scenario(seed=seed)
        results[seed] = (
            run_fig03(scenario, config),
            run_fig10(scenario, config),
        )
    return results


def test_ablation_seed_robustness(benchmark):
    results = benchmark(run_seeds)
    print("\n=== ablation: seed robustness ===")
    for seed, (fig03, fig10) in results.items():
        print(
            f"  seed {seed}: isp stage1 "
            f"{fig03.metrics['isp-ce/stage1']:+.1%}, domain-VPN "
            f"{fig10.metrics['domain/march']:+.1%} "
            f"[{'ok' if fig03.passed and fig10.passed else 'FAIL'}]"
        )
    for seed, (fig03, fig10) in results.items():
        assert fig03.passed, (seed, fig03.failed_checks())
        assert fig10.passed, (seed, fig10.failed_checks())

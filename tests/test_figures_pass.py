"""A figures pass on one dataset cache: seals, pools and Fig. 7 checks.

One cold ``run_all`` on a fresh world is shared by the module: it must
build each server-address pool at most once and pass every paper
check.  A second pass on the same cache must seal nothing new while
still running every Fig. 7/8 parity query.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro import build_scenario
from repro.core import ports
from repro.experiments import PipelineConfig, run_all
from repro.experiments.fig07 import run_fig07
from repro.flows.store import FlowStore
from repro.query.service import QueryService
from repro.synth import datasets
from repro.synth.datasets import DatasetCache

#: Paper checks the default world records at fast fidelity.
DEFAULT_SEED_CHECKS = 116


@pytest.fixture(scope="module")
def cold_pass():
    """(scenario, config, cache, results, pool builds) of one cold pass.

    Pool builds are counted per ``(salt, size, prefixes)`` wherever the
    flow sampler's server pools can be built from.
    """
    scenario = build_scenario()
    config = PipelineConfig.fast()
    cache = DatasetCache()
    builds: Counter = Counter()
    import repro.netbase.prefixes as prefixes_mod
    import repro.synth.flowgen as flowgen_mod

    original = prefixes_mod.deterministic_addresses_in

    def counting(prefixes, count, salt):
        builds[(salt, count, tuple(p.high16 for p in prefixes))] += 1
        return original(prefixes, count, salt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prefixes_mod, "deterministic_addresses_in", counting)
        patch.setattr(flowgen_mod, "deterministic_addresses_in", counting,
                      raising=False)
        with datasets.use_cache(cache):
            results = run_all(scenario, config)
    return scenario, config, cache, results, builds


def test_cold_pass_builds_each_server_pool_at_most_once(cold_pass):
    *_, builds = cold_pass
    assert builds, "flow sampling should draw server addresses"
    repeated = {key: n for key, n in builds.items() if n > 1}
    assert not repeated


def test_default_world_passes_every_check(cold_pass):
    _, _, cache, results, _ = cold_pass
    assert sum(len(r.checks) for r in results) == DEFAULT_SEED_CHECKS
    failed = [
        (r.experiment_id, name)
        for r in results for name, ok in r.checks.items() if not ok
    ]
    assert failed == []
    # Fig. 7 seals one store per vantage, Fig. 8 one gaming store.
    assert cache.stats.store_misses == 3
    assert cache.stats.store_hits == 0


def test_warm_pass_seals_nothing_and_still_queries(cold_pass, monkeypatch):
    scenario, config, cache, cold_results, _ = cold_pass
    writes = []
    outcomes = []
    write_range = FlowStore.write_range
    run = QueryService.run

    def counting_write(self, *args, **kwargs):
        writes.append(self.root)
        return write_range(self, *args, **kwargs)

    def recording_run(self, spec, timeout=None):
        outcome = run(self, spec, timeout=timeout)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(FlowStore, "write_range", counting_write)
    monkeypatch.setattr(QueryService, "run", recording_run)
    misses = cache.stats.store_misses
    with datasets.use_cache(cache):
        results = run_all(scenario, config)
    assert writes == []
    assert cache.stats.store_misses == misses
    assert cache.stats.store_hits >= 3
    assert len(outcomes) == 3
    assert all(not outcome.from_cache for outcome in outcomes)
    assert all(outcome.n_failed == 0 for outcome in outcomes)
    parity = {
        (r.experiment_id, name): ok
        for r in results for name, ok in r.checks.items()
        if name.startswith("query engine:")
    }
    assert len(parity) == 5 and all(parity.values())
    assert [r.checks for r in results] == [r.checks for r in cold_results]


#: Fig. 7 growth rows whose checks must fail, not vanish, when absent.
_DROPPED_ROWS = (
    "UDP/443", "UDP/4500", "TCP/8080", "GRE", "UDP/8801", "TCP/993",
    "UDP/2408",
)

_DEPENDENT_CHECKS = (
    "QUIC grows 30-80% at the ISP",
    "QUIC grows ~50% at the IXP",
    "UDP/4500 grows on workdays",
    "UDP/4500 weekend change negligible",
    "TCP/8080 sees no major change",
    "GRE slightly increases at the ISP",
    "Zoom grows by an order of magnitude at the ISP",
    "IMAP-TLS grows ~60% during working hours",
    "Cloudflare LB port flat",
)


def test_fig07_missing_growth_rows_fail_their_checks(cold_pass, monkeypatch):
    scenario, config, cache, cold_results, _ = cold_pass
    (cold,) = [r for r in cold_results if r.experiment_id == "fig07"]
    port_growth = ports.port_growth

    def without_rows(*args, **kwargs):
        growth = port_growth(*args, **kwargs)
        return {k: v for k, v in growth.items() if k not in _DROPPED_ROWS}

    monkeypatch.setattr(ports, "port_growth", without_rows)
    with datasets.use_cache(cache):
        result = run_fig07(scenario, config)
    assert set(result.checks) == set(cold.checks)
    for name in _DEPENDENT_CHECKS:
        assert cold.checks[name] is True
        assert result.checks[name] is False, name
    for metric in ("isp-ce/quic-growth", "ixp-ce/udp4500-weekend",
                   "isp-ce/zoom-growth", "ixp-ce/cloudflare-growth"):
        assert math.isnan(result.metrics[metric])
    assert result.checks["query engine: port mix matches batch exactly"]

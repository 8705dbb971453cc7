"""Dataset cache: keying, stats, and cold/warm/parallel equivalence."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from repro import timebase
from repro.experiments import PipelineConfig, run_all
from repro.flows.table import FlowTable
from repro.synth import datasets
from repro.synth.datasets import DatasetCache, DatasetRequest


class TestRequests:
    def test_requests_are_hashable_value_keys(self):
        a = datasets.flows_request(
            "isp-ce", dt.date(2020, 2, 19), dt.date(2020, 2, 25), 0.5
        )
        b = datasets.flows_request(
            "isp-ce", dt.date(2020, 2, 19), dt.date(2020, 2, 25), 0.5
        )
        assert a == b
        assert hash(a) == hash(b)
        assert a != datasets.flows_request(
            "ixp-ce", dt.date(2020, 2, 19), dt.date(2020, 2, 25), 0.5
        )

    def test_week_request_matches_flows_request(self):
        week = timebase.Week(dt.date(2020, 2, 19), "base")
        assert datasets.week_flows_request("isp-ce", week, 0.5) == (
            datasets.flows_request("isp-ce", week.start, week.end, 0.5)
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset kind"):
            DatasetRequest(
                kind="nope", vantage="isp-ce",
                start=dt.date(2020, 2, 19), end=dt.date(2020, 2, 19),
            )

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="end precedes start"):
            datasets.flows_request(
                "isp-ce", dt.date(2020, 2, 25), dt.date(2020, 2, 19)
            )

    def test_profiles_normalized_to_sorted_tuple(self):
        a = datasets.flows_request(
            "ixp-se", dt.date(2020, 3, 18), dt.date(2020, 3, 18),
            profiles=["vod", "gaming"],
        )
        b = datasets.flows_request(
            "ixp-se", dt.date(2020, 3, 18), dt.date(2020, 3, 18),
            profiles=("gaming", "vod"),
        )
        assert a == b


class TestCacheBehavior:
    @pytest.fixture
    def request_base(self):
        return datasets.flows_request(
            "isp-ce", dt.date(2020, 2, 19), dt.date(2020, 2, 19), 0.2
        )

    def test_second_fetch_hits_and_returns_same_object(
        self, scenario, request_base
    ):
        cache = DatasetCache()
        first = cache.fetch(scenario, request_base)
        second = cache.fetch(scenario, request_base)
        assert second is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.entries == 1
        assert cache.stats.resident_bytes == first.nbytes > 0

    def test_disabled_cache_counts_bypasses(self, scenario, request_base):
        cache = DatasetCache(enabled=False)
        first = cache.fetch(scenario, request_base)
        second = cache.fetch(scenario, request_base)
        assert first is not second
        assert first == second
        assert cache.stats.to_dict() == {
            "hits": 0, "misses": 0, "bypasses": 2,
            "entries": 0, "resident_bytes": 0,
        }

    def test_clear_drops_entries(self, scenario, request_base):
        cache = DatasetCache()
        cache.fetch(scenario, request_base)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.resident_bytes == 0
        cache.fetch(scenario, request_base)
        assert cache.stats.misses == 2

    def test_use_cache_restores_previous(self):
        outer = datasets.get_cache()
        inner = DatasetCache()
        with datasets.use_cache(inner):
            assert datasets.get_cache() is inner
        assert datasets.get_cache() is outer

    def test_materialized_flows_match_direct_generation(
        self, scenario, request_base
    ):
        cached = DatasetCache().fetch(scenario, request_base)
        direct = scenario.isp_ce.generate_flows(
            request_base.start, request_base.end, fidelity=0.2
        )
        assert isinstance(cached, FlowTable)
        assert cached == direct

    def test_link_util_materialization_is_deterministic(self, scenario):
        request = datasets.link_util_request(
            "ixp-ce", dt.date(2020, 2, 19), 1.0
        )
        a = DatasetCache().fetch(scenario, request)
        b = DatasetCache().fetch(scenario, request)
        assert set(a) == set(b)
        for member in a:
            np.testing.assert_array_equal(a[member], b[member])


class TestDiskTier:
    @pytest.fixture
    def request_base(self):
        return datasets.flows_request(
            "isp-ce", dt.date(2020, 2, 19), dt.date(2020, 2, 19), 0.2
        )

    def test_cold_run_writes_archives(self, scenario, request_base, tmp_path):
        cache = DatasetCache(cache_dir=tmp_path)
        value = cache.fetch(scenario, request_base)
        path = cache.entry_path(scenario, request_base)
        assert path is not None and path.exists()
        assert cache.stats.misses == 1
        assert cache.stats.disk_misses == 1
        assert cache.stats.disk_writes == 1
        assert cache.stats.disk_bytes == path.stat().st_size > 0
        assert isinstance(value, FlowTable)

    def test_warm_disk_skips_materialization(
        self, scenario, request_base, tmp_path
    ):
        DatasetCache(cache_dir=tmp_path).fetch(scenario, request_base)
        fresh = DatasetCache(cache_dir=tmp_path)
        loaded = fresh.fetch(scenario, request_base)
        assert fresh.stats.misses == 0, "disk hit must not materialize"
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.disk_writes == 0
        assert loaded == DatasetCache().fetch(scenario, request_base)
        # memory tier serves repeats; the archive is read once
        again = fresh.fetch(scenario, request_base)
        assert again is loaded
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.hits == 1

    def test_link_util_round_trips(self, scenario, tmp_path):
        request = datasets.link_util_request(
            "ixp-ce", dt.date(2020, 2, 19), 1.0
        )
        direct = DatasetCache(cache_dir=tmp_path).fetch(scenario, request)
        loaded = DatasetCache(cache_dir=tmp_path).fetch(scenario, request)
        assert set(loaded) == set(direct)
        for member in direct:
            np.testing.assert_array_equal(loaded[member], direct[member])

    def test_corrupt_archive_regenerates_and_rewrites(
        self, scenario, request_base, tmp_path
    ):
        reference = DatasetCache(cache_dir=tmp_path).fetch(
            scenario, request_base
        )
        path = DatasetCache(cache_dir=tmp_path).entry_path(
            scenario, request_base
        )
        path.write_bytes(b"not an npz archive")
        cache = DatasetCache(cache_dir=tmp_path)
        value = cache.fetch(scenario, request_base)
        assert value == reference
        assert cache.stats.disk_misses == 1
        assert cache.stats.disk_writes == 1, "corrupt entry is rewritten"
        healed = DatasetCache(cache_dir=tmp_path)
        assert healed.fetch(scenario, request_base) == reference
        assert healed.stats.disk_hits == 1

    def test_truncated_archive_is_a_miss(
        self, scenario, request_base, tmp_path
    ):
        cache = DatasetCache(cache_dir=tmp_path)
        cache.fetch(scenario, request_base)
        path = cache.entry_path(scenario, request_base)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        fresh = DatasetCache(cache_dir=tmp_path)
        fresh.fetch(scenario, request_base)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.disk_misses == 1

    def test_format_version_bump_invalidates(
        self, scenario, request_base, tmp_path, monkeypatch
    ):
        DatasetCache(cache_dir=tmp_path).fetch(scenario, request_base)
        monkeypatch.setattr(datasets, "DISK_FORMAT", datasets.DISK_FORMAT + 1)
        cache = DatasetCache(cache_dir=tmp_path)
        cache.fetch(scenario, request_base)
        assert cache.stats.disk_hits == 0
        assert cache.stats.disk_misses == 1
        assert cache.stats.misses == 1

    def test_stale_token_inside_archive_is_a_miss(
        self, scenario, request_base, tmp_path
    ):
        other = datasets.flows_request(
            "isp-ce", dt.date(2020, 2, 20), dt.date(2020, 2, 20), 0.2
        )
        cache = DatasetCache(cache_dir=tmp_path)
        cache.fetch(scenario, other)
        # simulate a hash collision / stale file: another entry's bytes
        # sit at this request's path — the recorded token must reject it
        other_path = cache.entry_path(scenario, other)
        target = cache.entry_path(scenario, request_base)
        target.write_bytes(other_path.read_bytes())
        fresh = DatasetCache(cache_dir=tmp_path)
        value = fresh.fetch(scenario, request_base)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.disk_misses == 1
        assert value == DatasetCache().fetch(scenario, request_base)

    def test_unwritable_cache_dir_is_non_fatal(self, scenario, request_base,
                                               tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        cache = DatasetCache(cache_dir=blocker / "sub")
        value = cache.fetch(scenario, request_base)
        assert isinstance(value, FlowTable)
        assert cache.stats.misses == 1
        assert cache.stats.disk_writes == 0

    def test_disabled_cache_ignores_disk_tier(
        self, scenario, request_base, tmp_path
    ):
        cache = DatasetCache(enabled=False, cache_dir=tmp_path)
        cache.fetch(scenario, request_base)
        assert list(tmp_path.iterdir()) == []
        assert cache.stats.bypasses == 1
        assert cache.stats.disk_misses == 0

    def test_entry_token_covers_identity(self, scenario, request_base):
        fingerprint = (1, 2)
        token = datasets.entry_token(fingerprint, request_base)
        assert datasets.entry_token(fingerprint, request_base) == token
        assert datasets.entry_token((1, 3), request_base) != token
        other = datasets.flows_request(
            "isp-ce", dt.date(2020, 2, 19), dt.date(2020, 2, 19), 0.5
        )
        assert datasets.entry_token(fingerprint, other) != token


def _signature(results):
    """Comparable (id, metrics, checks) rows, order included."""
    return [
        (r.experiment_id, sorted(r.metrics.items()), sorted(r.checks.items()))
        for r in results
    ]


class TestRunEquivalence:
    """Cold/warm/disabled caches and serial/parallel executors must all
    produce bit-identical metrics and checks."""

    @pytest.fixture(scope="class")
    def reference(self, scenario, fast_config):
        cache = DatasetCache()
        with datasets.use_cache(cache):
            results = run_all(scenario, fast_config)
        assert cache.stats.hits > 0, "run_all should share datasets"
        return _signature(results)

    def test_warm_cache_equivalent(self, scenario, fast_config, reference):
        cache = DatasetCache()
        with datasets.use_cache(cache):
            run_all(scenario, fast_config)
            warm = run_all(scenario, fast_config)
        assert cache.stats.hits > cache.stats.misses
        assert _signature(warm) == reference

    def test_disabled_cache_equivalent(
        self, scenario, fast_config, reference
    ):
        cache = DatasetCache(enabled=False)
        with datasets.use_cache(cache):
            results = run_all(scenario, fast_config)
        assert cache.stats.bypasses > 0
        assert cache.stats.misses == 0
        assert _signature(results) == reference

    def test_parallel_jobs_equivalent(
        self, scenario, fast_config, reference
    ):
        with datasets.use_cache(DatasetCache()):
            results = run_all(scenario, fast_config, jobs=4)
        assert _signature(results) == reference

    def test_parallel_without_cache_equivalent(
        self, scenario, fast_config, reference
    ):
        with datasets.use_cache(DatasetCache(enabled=False)):
            results = run_all(scenario, fast_config, jobs=4)
        assert _signature(results) == reference

    def test_disk_tier_cold_and_warm_equivalent(
        self, scenario, fast_config, reference, tmp_path_factory
    ):
        cache_dir = tmp_path_factory.mktemp("dataset-disk")
        cold_cache = DatasetCache(cache_dir=cache_dir)
        with datasets.use_cache(cold_cache):
            cold = run_all(scenario, fast_config)
        assert cold_cache.stats.disk_writes > 0
        assert _signature(cold) == reference
        # a fresh process-alike: empty memory tier, warm disk
        warm_cache = DatasetCache(cache_dir=cache_dir)
        with datasets.use_cache(warm_cache):
            warm = run_all(scenario, fast_config)
        assert warm_cache.stats.misses == 0, (
            "warm disk must skip flow generation entirely"
        )
        assert warm_cache.stats.disk_hits > 0
        assert _signature(warm) == reference

    def test_parallel_with_disk_tier_equivalent(
        self, scenario, fast_config, reference, tmp_path_factory
    ):
        cache_dir = tmp_path_factory.mktemp("dataset-disk-par")
        with datasets.use_cache(DatasetCache(cache_dir=cache_dir)):
            results = run_all(scenario, fast_config, jobs=4)
        assert _signature(results) == reference

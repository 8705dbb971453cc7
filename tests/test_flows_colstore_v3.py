"""Tests for the v3 columnar format and its predicate-first scan path.

Covers per-column encodings chosen at seal time, bitmap indexes
evaluated before row materialization, the cost-based bitmap-vs-scan
planner, unknown-encoding degradation to the raw fallback, corruption
drills on individual ``segments.bin`` parts, sidecars of another format,
and process-pool scans over pickled handles.  Query answers are checked
against a plain-numpy evaluation of the in-memory flow table
(:mod:`tests.query_reference`).
"""

import datetime as dt
import json

import numpy as np
import pytest

import repro.obs as obs
from repro import timebase
from repro.flows import colstore, encodings
from repro.flows.store import FORMAT_V3, FlowStore, FlowStoreError
from repro.flows.table import COLUMNS
from repro.query import QuerySpec, engine, execute_query, plan_query
from repro.query.procpool import ScanPool
from tests.query_reference import assert_matches
from tests.store_drills import age_partition, rewrite_sidecar

START = dt.date(2020, 2, 19)
END = dt.date(2020, 2, 25)
MID = dt.date(2020, 2, 20)


@pytest.fixture(scope="module")
def week_flows(scenario):
    return scenario.isp_ce.generate_flows(START, END, fidelity=0.3)


@pytest.fixture
def v3_store(tmp_path, week_flows):
    store = FlowStore(tmp_path / "v3")
    store.write_range(week_flows, START, END)
    return store


def _spec(**kwargs):
    kwargs.setdefault("vantage", "isp-ce")
    kwargs.setdefault("start", START)
    kwargs.setdefault("end", END)
    return QuerySpec.build(**kwargs)


#: Query shapes spanning every v3 strategy: sidecar pre-aggregates,
#: plain projected scans, bitmap equality/membership, dict-range
#: compares, derived keys, and predicates on unindexed columns.
PARITY_SPECS = (
    dict(aggregates=["bytes", "flows"]),
    dict(aggregates=["bytes", "flows"], bucket="hour"),
    dict(group_by=["proto"], aggregates=["bytes", "packets"]),
    dict(where={"proto": 17}, group_by=["service_port"],
         aggregates=["bytes"]),
    dict(where={"proto": [6, 17]}, aggregates=["bytes", "flows"],
         bucket="day"),
    dict(where={"transport": 2}, aggregates=["bytes",
                                             "distinct_src_ips"]),
    dict(where={"dst_port": {"min": 440, "max": 450}},
         aggregates=["connections", "distinct_dst_ips"]),
    dict(where={"proto": 17, "dst_port": {"min": 0, "max": 1024}},
         group_by=["service_port"], aggregates=["bytes", "packets"]),
)


def _rewrite_sidecar(store, day, mutate):
    """Hand-edit one sidecar; return the store reopened."""
    rewrite_sidecar(store.root, day, mutate)
    return FlowStore(store.root)


def _day_rows(flows, day):
    """``day``'s rows of ``flows``, in input order."""
    hours = flows.column("hour")
    start = timebase.hour_index(day, 0)
    return flows.filter((hours >= start) & (hours < start + 24))


class TestLayout:
    def test_partition_is_sidecar_plus_one_blob(self, v3_store):
        day_dir = v3_store.root / START.isoformat()
        names = sorted(p.name for p in day_dir.iterdir())
        assert names == sorted([colstore.SIDECAR, colstore.DATA_FILE])
        manifest = json.loads((v3_store.root / "manifest.json").read_text())
        assert manifest[START.isoformat()]["format"] == FORMAT_V3
        assert v3_store.open_partition(START).sidecar["format"] == FORMAT_V3

    def test_parts_are_aligned_and_hashed(self, v3_store):
        sidecar = v3_store.open_partition(START).sidecar
        blob_size = (
            v3_store.root / START.isoformat() / colstore.DATA_FILE
        ).stat().st_size
        seen = 0
        for meta in sidecar["columns"].values():
            for part in meta["parts"].values():
                assert part["offset"] % 64 == 0
                assert part["offset"] + part["nbytes"] <= blob_size
                assert len(part["sha256"]) == 64
                seen += 1
        assert seen >= len(COLUMNS)

    def test_seal_time_encoding_choices(self, v3_store):
        partition = v3_store.open_partition(START)
        stats = partition.encoding_stats()
        assert set(stats) == set(COLUMNS)
        # Low-cardinality protocol numbers dictionary-encode and carry
        # a bitmap index; the sorted hour column delta-packs.
        assert stats["proto"]["encoding"] == encodings.DICT
        assert stats["proto"]["index_nbytes"] > 0
        assert stats["hour"]["encoding"] == encodings.DELTA
        for name, column in stats.items():
            assert 0 < column["stored_nbytes"] <= column["raw_nbytes"]

    def test_partition_compresses_versus_v2(self, v3_store):
        # v2 stored every column raw: the sidecar's raw byte sizes.
        partition = v3_store.open_partition(START)
        raw_bytes = sum(
            meta["nbytes"] for meta in partition.sidecar["columns"].values()
        )
        assert 0 < partition.column_nbytes(tuple(COLUMNS)) < raw_bytes

    def test_column_stats_aggregate(self, v3_store):
        stats, unreadable = v3_store.column_stats()
        assert unreadable == {}
        assert set(stats) == set(COLUMNS)
        assert encodings.DICT in stats["proto"]["encodings"]
        assert stats["proto"]["stored_nbytes"] < \
            stats["proto"]["raw_nbytes"]
        assert stats["proto"]["max_cardinality"] >= 2

    def test_read_day_round_trips(self, v3_store, week_flows):
        for day in v3_store.days():
            v3 = v3_store.read_day(day)
            for name in COLUMNS:
                assert v3.column(name).dtype == COLUMNS[name]
            assert v3 == _day_rows(week_flows, day)

    def test_empty_partition_round_trips(self, tmp_path, week_flows):
        store = FlowStore(tmp_path / "empty3")
        empty = week_flows.filter(
            np.zeros(len(week_flows), dtype=bool)
        )
        store.write_day(START, empty)
        assert len(store.read_day(START)) == 0
        partition = store.open_partition(START)
        assert partition.rows == 0
        bundle, _ = partition.load(("proto", "n_bytes"))
        assert len(bundle) == 0


class TestPlanner:
    def test_filtered_query_plans_bitmap_strategy(self, v3_store):
        plan = plan_query(
            v3_store,
            _spec(where={"proto": 17}, group_by=["service_port"],
                  aggregates=["bytes"]),
        )
        counts = plan.strategy_counts()
        assert counts.get("bitmap", 0) >= 1
        assert sum(counts.values()) == len(plan.days)
        assert plan.to_dict()["strategies"] == counts

    def test_unfiltered_query_plans_scan(self, v3_store):
        plan = plan_query(
            v3_store, _spec(group_by=["proto"], aggregates=["bytes"])
        )
        assert plan.strategy_counts() == {"scan": 7}

    def test_sidecar_strategy_still_wins(self, v3_store):
        plan = plan_query(v3_store, _spec(aggregates=["bytes", "flows"]))
        assert plan.strategy_counts() == {"sidecar": 7}
        assert plan.estimated_bytes == 0

    def test_v2_partitions_never_plan_bitmap(self, v3_store, week_flows):
        # A partition left in format 2 is planned as unreadable, with
        # no estimated bytes, and the scan fails it.
        age_partition(v3_store.root, MID, _day_rows(week_flows, MID), 2)
        aged = FlowStore(v3_store.root)
        spec = _spec(where={"proto": 17}, aggregates=["bytes"])
        plan = plan_query(aged, spec)
        strategies = dict(zip(plan.days, plan.day_strategies))
        assert strategies.pop(MID) == "unreadable"
        assert set(strategies.values()) == {"bitmap"}
        alone = plan_query(aged, _spec(where={"proto": 17},
                                       aggregates=["bytes"],
                                       start=MID, end=MID))
        assert alone.day_strategies == ("unreadable",)
        assert alone.estimated_bytes == 0
        result = execute_query(aged, spec)
        assert [f.day for f in result.partitions_failed] == [MID.isoformat()]

    def test_bitmap_estimate_below_scan_estimate(self, v3_store):
        filtered = _spec(where={"proto": 17},
                         group_by=["service_port"],
                         aggregates=["bytes"])
        unfiltered = _spec(group_by=["service_port", "proto"],
                           aggregates=["bytes"])
        assert 0 < plan_query(v3_store, filtered).estimated_bytes < \
            plan_query(v3_store, unfiltered).estimated_bytes


class TestBitmapScan:
    def test_filtered_scan_reads_fewer_bytes_than_v2(
        self, v3_store, week_flows
    ):
        # The same narrow filtered query touches fewer bytes on v3
        # (encoded parts + gathered rows) than v2 read (the full raw
        # segments of every projected column).
        spec = _spec(where={"proto": 17}, group_by=["service_port"],
                     aggregates=["bytes"])
        v3 = execute_query(v3_store, spec)
        raw_bytes = sum(
            v3_store.open_partition(day).sidecar["columns"][name]["nbytes"]
            for day in v3_store.days()
            for name in spec.referenced_columns()
        )
        assert_matches(v3, week_flows, spec)
        assert 0 < v3.bytes_read < raw_bytes

    def test_bitmap_counters_fire(self, v3_store):
        obs.configure(telemetry=True)
        try:
            execute_query(
                v3_store,
                _spec(where={"proto": 17}, aggregates=["bytes"]),
            )
            counters = obs.get_registry().snapshot()["counters"]
        finally:
            obs.reset()
        assert counters.get("query.bitmap-scans", 0) >= 1
        assert counters.get("colstore.bitmap-predicates", 0) >= 1

    def test_absent_value_short_circuits(self, v3_store):
        partition = v3_store.open_partition(START)
        # 255 is never generated as a protocol; the dict lookup proves
        # absence without touching codes or bitmap rows.
        spec = _spec(where={"proto": 255}, aggregates=["bytes"])
        bundle, bytes_read = partition.load_filtered(
            spec.where, ("n_bytes",)
        )
        assert len(bundle) == 0
        assert bytes_read == 0
        result = execute_query(v3_store, spec)
        assert result.rows == []
        assert result.rows_matched == 0

    def test_load_filtered_matches_mask_scan(self, v3_store):
        partition = v3_store.open_partition(START)
        table = v3_store.read_day(START)
        spec = _spec(where={"proto": [6, 17],
                            "dst_port": {"min": 0, "max": 2048}},
                     aggregates=["bytes"])
        bundle, _ = partition.load_filtered(
            spec.where, ("n_bytes", "proto")
        )
        mask = np.isin(table.column("proto"), [6, 17])
        mask &= table.column("dst_port") <= 2048
        assert len(bundle) == int(mask.sum())
        assert np.array_equal(
            bundle.column("n_bytes"), table.column("n_bytes")[mask]
        )

    def test_derived_key_predicate_parity(self, v3_store, week_flows):
        spec = _spec(where={"transport": 2},
                     group_by=["service_port"], aggregates=["bytes"])
        assert_matches(execute_query(v3_store, spec), week_flows, spec)

    def test_rejects_non_v3_partition(self, v3_store):
        # A sidecar of another format is refused even when the manifest
        # vouches for its bytes.
        def _downgrade(sidecar):
            sidecar["format"] = 2

        reopened = _rewrite_sidecar(v3_store, MID, _downgrade)
        with pytest.raises(
            FlowStoreError,
            match="unsupported format 2.*repro generate --store",
        ):
            reopened.open_partition(MID)


class TestReferenceParity:
    def test_parity_specs_match_reference(self, v3_store, week_flows):
        strategies = set()
        for kwargs in PARITY_SPECS:
            spec = _spec(**kwargs)
            strategies.update(plan_query(v3_store, spec).day_strategies)
            assert_matches(execute_query(v3_store, spec), week_flows, spec)
        # Between them the specs plan every strategy.
        assert strategies == {"sidecar", "scan", "bitmap"}


class TestMigration:
    def test_mixed_formats_answer_identically(self, tmp_path, week_flows,
                                              v3_store):
        """Partitions left in old formats fail alone, and re-sealing
        them migrates the store to answers identical to a pure one."""
        store = FlowStore(tmp_path / "mixed")
        store.write_range(week_flows, START, END)
        aged = {MID: 2, END: None}
        for day, fmt in aged.items():
            age_partition(store.root, day, _day_rows(week_flows, day), fmt)
        store = FlowStore(store.root)
        spec = _spec(group_by=["proto"], aggregates=["bytes", "flows"])
        failed = execute_query(store, spec).partitions_failed
        assert sorted(f.day for f in failed) == \
            sorted(day.isoformat() for day in aged)
        for day in aged:
            store.write_day(day, _day_rows(week_flows, day))
        assert list((store.root / MID.isoformat()).glob("*.npy")) == []
        for kwargs in PARITY_SPECS:
            spec = _spec(**kwargs)
            mixed = execute_query(store, spec)
            pure = execute_query(v3_store, spec)
            assert mixed.partitions_failed == []
            assert mixed.rows == pure.rows
            assert mixed.rows_matched == pure.rows_matched
            assert mixed.rows_scanned == pure.rows_scanned


class TestModeEquivalence:
    def test_v3_escape_hatch_bit_identical(self, v3_store, monkeypatch):
        """Predicate-first bitmap scans give the plain projected scan's
        answer."""
        bitmap_used = False
        for kwargs in PARITY_SPECS:
            spec = _spec(**kwargs)
            plan = plan_query(v3_store, spec)
            bitmap_used |= "bitmap" in plan.day_strategies
            default = execute_query(v3_store, spec).to_dict()
            with monkeypatch.context() as patch:
                patch.setattr(
                    engine, "_partition_strategy",
                    lambda partition, spec: ("scan", partition.column_nbytes(
                        spec.referenced_columns())),
                )
                assert "bitmap" not in \
                    plan_query(v3_store, spec).day_strategies
                forced = execute_query(v3_store, spec).to_dict()
            for payload in (forced, default):
                for volatile in ("wall_s", "bytes_read", "columns_loaded",
                                 "stages", "plan"):
                    payload.pop(volatile)
            assert forced == default
        assert bitmap_used


class TestIntegrity:
    def _flip_part(self, store, day, part_meta):
        day_dir = store.root / day.isoformat()
        path = day_dir / colstore.DATA_FILE
        payload = bytearray(path.read_bytes())
        target = part_meta["offset"] + part_meta["nbytes"] // 2
        payload[target] ^= 0xFF
        path.write_bytes(bytes(payload))

    def test_corrupt_column_part_names_column(self, v3_store):
        sidecar = v3_store.open_partition(MID).sidecar
        part = next(iter(sidecar["columns"]["n_bytes"]["parts"].values()))
        self._flip_part(v3_store, MID, part)
        with pytest.raises(
            FlowStoreError, match="column 'n_bytes'.*corrupt"
        ):
            v3_store.read_day(MID)

    def test_corrupt_bitmap_index_names_index(self, v3_store):
        partition = v3_store.open_partition(MID)
        index = partition.index_meta("proto")
        assert index is not None
        self._flip_part(v3_store, MID, index["part"])
        spec = _spec(where={"proto": 17}, aggregates=["bytes"])
        with pytest.raises(
            FlowStoreError, match="bitmap index on 'proto'.*corrupt"
        ):
            v3_store.open_partition(MID).load_filtered(
                spec.where, ("n_bytes",)
            )

    def test_projected_query_skips_unread_corruption(self, v3_store):
        sidecar = v3_store.open_partition(MID).sidecar
        part = next(iter(sidecar["columns"]["dst_asn"]["parts"].values()))
        self._flip_part(v3_store, MID, part)
        result = execute_query(
            v3_store, _spec(group_by=["proto"], aggregates=["bytes"])
        )
        assert result.n_failed == 0
        with pytest.raises(FlowStoreError, match="dst_asn"):
            v3_store.read_day(MID)

    def test_corrupt_partition_is_query_failure_not_crash(self, v3_store):
        sidecar = v3_store.open_partition(MID).sidecar
        part = next(iter(sidecar["columns"]["n_bytes"]["parts"].values()))
        self._flip_part(v3_store, MID, part)
        result = execute_query(
            v3_store, _spec(group_by=["proto"], aggregates=["bytes"])
        )
        assert result.n_failed == 1
        assert result.partitions_failed[0].day == MID.isoformat()

    def test_unknown_encoding_degrades_to_raw(self, v3_store):
        # Simulate a future writer: an encoding this reader does not
        # know, but with a checksummed raw fallback part kept alongside
        # it at the end of ``segments.bin``.
        import hashlib

        name = "hour"
        expected = v3_store.read_day(MID).column(name)
        raw = np.ascontiguousarray(expected).tobytes()
        data_path = v3_store.root / MID.isoformat() / colstore.DATA_FILE
        offset = data_path.stat().st_size
        with data_path.open("ab") as handle:
            handle.write(raw)

        def _mutate(sidecar):
            meta = sidecar["columns"][name]
            meta["encoding"] = "zstd-exotic"
            meta["parts"]["raw"] = {
                "offset": offset,
                "nbytes": len(raw),
                "sha256": hashlib.sha256(raw).hexdigest(),
                "dtype": expected.dtype.str,
                "count": int(expected.size),
            }

        reopened = _rewrite_sidecar(v3_store, MID, _mutate)
        obs.configure(telemetry=True)
        try:
            after = reopened.read_day(MID).column(name)
            counters = obs.get_registry().snapshot()["counters"]
        finally:
            obs.reset()
        assert np.array_equal(after, expected)
        assert counters.get("colstore.encoding-degraded", 0) >= 1

    def test_unknown_encoding_without_raw_part_raises(self, v3_store):
        partition = v3_store.open_partition(MID)
        assert partition.sidecar["columns"]["proto"]["encoding"] == \
            encodings.DICT

        def _mutate(sidecar):
            sidecar["columns"]["proto"]["encoding"] = "zstd-exotic"

        reopened = _rewrite_sidecar(v3_store, MID, _mutate)
        with pytest.raises(
            FlowStoreError, match="unknown encoding.*no raw fallback"
        ):
            reopened.read_day(MID)


class TestProcessPool:
    def test_process_pool_matches_serial(self, v3_store):
        specs = [
            _spec(where={"proto": 17}, group_by=["service_port"],
                  aggregates=["bytes"]),
            _spec(group_by=["transport"], aggregates=["bytes", "flows"]),
        ]
        with ScanPool(2) as pool:
            for spec in specs:
                pooled = execute_query(v3_store, spec, pool=pool)
                serial = execute_query(v3_store, spec)
                assert pooled.rows == serial.rows
                assert pooled.rows_scanned == serial.rows_scanned
                assert pooled.rows_matched == serial.rows_matched

    def test_partition_handle_pickles_small(self, v3_store):
        import pickle

        partition = v3_store.open_partition(START)
        partition.load(("proto",))  # force the lazy mmap open
        payload = pickle.dumps(partition)
        day_dir = v3_store.root / START.isoformat()
        # The handle ships the sidecar (workers need values/counts for
        # predicate resolution) but never the mmap'd row data.
        sidecar_bytes = (day_dir / colstore.SIDECAR).stat().st_size
        data_bytes = (day_dir / colstore.DATA_FILE).stat().st_size
        assert len(payload) < sidecar_bytes + 4096
        assert len(payload) < data_bytes // 2
        clone = pickle.loads(payload)
        bundle, _ = clone.load(("proto", "n_bytes"))
        assert len(bundle) == partition.rows

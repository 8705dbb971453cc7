"""Tests for the v3 columnar format and its scan path.

Covers per-column encodings chosen at seal time, the planner's
per-partition sidecar/scan choice and byte estimates, sidecars that
carry the keys earlier versions sealed, unknown-encoding degradation to
the raw fallback, corruption drills on individual ``segments.bin``
parts, sidecars of another format, and process-pool scans over pickled
handles.  Query answers are checked against a plain-numpy evaluation
of the in-memory flow table (:mod:`tests.query_reference`).
"""

import datetime as dt
import json

import numpy as np
import pytest

import repro.obs as obs
from repro import cli, timebase
from repro.flows import colstore, encodings
from repro.flows.store import FORMAT_V3, FlowStore, FlowStoreError
from repro.flows.table import COLUMNS
from repro.query import QuerySpec, execute_query, plan_query
from repro.query.procpool import ScanPool
from tests.query_reference import assert_matches
from tests.store_drills import (
    add_old_sidecar_keys,
    age_partition,
    rewrite_sidecar,
)

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


#: Query shapes spanning both ways to answer a partition (sidecar
#: pre-aggregates and projected scans), with equality, membership and
#: range predicates on dictionary, raw and derived-key columns.
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
        # Low-cardinality protocol numbers dictionary-encode; the
        # sorted hour column delta-packs.
        assert stats["proto"]["encoding"] == encodings.DICT
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
    def test_unfiltered_query_plans_scan(self, v3_store):
        plan = plan_query(
            v3_store, _spec(group_by=["proto"], aggregates=["bytes"])
        )
        assert plan.strategy_counts() == {"scan": 7}

    def test_sidecar_strategy_still_wins(self, v3_store):
        plan = plan_query(v3_store, _spec(aggregates=["bytes", "flows"]))
        assert plan.strategy_counts() == {"sidecar": 7}
        assert plan.estimated_bytes == 0

    def test_old_format_partition_plans_unreadable(
        self, v3_store, week_flows
    ):
        # A partition left in format 2 is planned as unreadable, with
        # no estimated bytes, and the scan fails it.
        age_partition(v3_store.root, MID, _day_rows(week_flows, MID), 2)
        aged = FlowStore(v3_store.root)
        spec = _spec(where={"proto": 17}, aggregates=["bytes"])
        plan = plan_query(aged, spec)
        strategies = dict(zip(plan.days, plan.day_strategies))
        assert strategies.pop(MID) == "unreadable"
        assert set(strategies.values()) == {"scan"}
        assert plan.to_dict()["strategies"] == {"unreadable": 1, "scan": 6}
        alone = plan_query(aged, _spec(where={"proto": 17},
                                       aggregates=["bytes"],
                                       start=MID, end=MID))
        assert alone.day_strategies == ("unreadable",)
        assert alone.estimated_bytes == 0
        result = execute_query(aged, spec)
        assert [f.day for f in result.partitions_failed] == [MID.isoformat()]


class TestFilteredScan:
    def test_filtered_scan_reads_fewer_bytes_than_raw(
        self, v3_store, week_flows
    ):
        # A filtered query reads the encoded parts of its projected
        # columns, fewer bytes than those columns hold raw.
        spec = _spec(where={"proto": 17}, group_by=["service_port"],
                     aggregates=["bytes"])
        v3 = execute_query(v3_store, spec)
        raw_bytes = sum(
            v3_store.open_partition(day).sidecar["columns"][name]["nbytes"]
            for day in v3_store.days()
            for name in spec.referenced_columns()
        )
        assert_matches(v3, week_flows, spec)
        assert set(v3.columns_loaded) == set(spec.referenced_columns())
        assert 0 < v3.bytes_read < raw_bytes

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
        # Between them the specs plan both ways to answer a day.
        assert strategies == {"sidecar", "scan"}


class TestOldSidecarKeys:
    """A day whose sidecar still carries the keys earlier v3 writers
    sealed (an ``indexes`` block, per-value ``values``/``counts``)."""

    @pytest.fixture
    def old_keys_store(self, tmp_path, week_flows):
        store = FlowStore(tmp_path / "old-keys")
        store.write_range(week_flows, START, END)
        add_old_sidecar_keys(store.root, MID)
        store = FlowStore(store.root)
        sidecar = store.open_partition(MID).sidecar
        assert sidecar["indexes"]
        assert "counts" in sidecar["columns"]["proto"]
        return store

    def test_parity_specs_answer_as_untouched(self, old_keys_store,
                                              v3_store):
        for kwargs in PARITY_SPECS:
            spec = _spec(**kwargs)
            old = execute_query(old_keys_store, spec).to_dict()
            untouched = execute_query(v3_store, spec).to_dict()
            for payload in (old, untouched):
                for volatile in ("wall_s", "stages"):
                    payload.pop(volatile)
            assert old == untouched

    def test_store_stats_reads_the_day(self, old_keys_store, v3_store,
                                       capsys):
        payloads = []
        for store in (old_keys_store, v3_store):
            capsys.readouterr()
            assert cli.main(
                ["store", "stats", str(store.root), "--json"]
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            payload.pop("store")
            payloads.append(payload)
        assert payloads[0]["unreadable"] == {}
        assert payloads[0] == payloads[1]


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
        # The handle ships the sidecar (part offsets, checksums, zones)
        # but never the mmap'd row data.
        sidecar_bytes = (day_dir / colstore.SIDECAR).stat().st_size
        data_bytes = (day_dir / colstore.DATA_FILE).stat().st_size
        assert len(payload) < sidecar_bytes + 4096
        assert len(payload) < data_bytes // 2
        clone = pickle.loads(payload)
        bundle, _ = clone.load(("proto", "n_bytes"))
        assert len(bundle) == partition.rows

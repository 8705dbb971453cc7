"""Tests for the columnar partition layout and its query paths.

Covers the partition directory layout, corruption drills that must
degrade to :class:`FlowStoreError` naming the broken piece, partitions
left in an old format by earlier versions, projection pushdown with I/O
accounting, zone-map data skipping, and sidecar pre-aggregate serving.
Every answer is checked against a plain-numpy evaluation of the
in-memory flow table (:mod:`tests.query_reference`).
"""

import datetime as dt
import json
import shutil

import numpy as np
import pytest

import repro.obs as obs
from repro import timebase
from repro.flows import colstore
from repro.flows.store import FORMAT_V3, FlowStore, FlowStoreError
from repro.flows.table import COLUMNS
from repro.query import QuerySpec, engine, execute_query, plan_query
from repro.query.procpool import ScanPool
from tests.query_reference import assert_matches
from tests.store_drills import age_partition, flip_byte, rewrite_sidecar

START = dt.date(2020, 2, 19)
END = dt.date(2020, 2, 25)
MID = dt.date(2020, 2, 20)


@pytest.fixture(scope="module")
def week_flows(scenario):
    return scenario.isp_ce.generate_flows(START, END, fidelity=0.3)


@pytest.fixture
def store(tmp_path, week_flows):
    store = FlowStore(tmp_path / "v3")
    store.write_range(week_flows, START, END)
    return store


def _spec(**kwargs):
    kwargs.setdefault("vantage", "isp-ce")
    kwargs.setdefault("start", START)
    kwargs.setdefault("end", END)
    return QuerySpec.build(**kwargs)


def _day_rows(flows, day):
    """``day``'s rows of ``flows``, in input order."""
    hours = flows.column("hour")
    start = timebase.hour_index(day, 0)
    return flows.filter((hours >= start) & (hours < start + 24))


def _without_day(flows, day):
    hours = flows.column("hour")
    start = timebase.hour_index(day, 0)
    return flows.filter((hours < start) | (hours >= start + 24))


#: A spread of query shapes covering every scan path: sidecar
#: pre-aggregates, projected grouping, derived keys, predicates,
#: sketches, and time buckets.
PARITY_SPECS = (
    dict(aggregates=["bytes", "flows"]),
    dict(aggregates=["bytes", "flows"], bucket="hour"),
    dict(aggregates=["bytes"], bucket="day"),
    dict(group_by=["transport"], aggregates=["bytes", "packets"]),
    dict(where={"proto": 17}, group_by=["service_port"],
         aggregates=["bytes", "distinct_src_ips"]),
    dict(where={"dst_port": {"min": 440, "max": 450}},
         aggregates=["connections", "distinct_dst_ips"]),
)


class TestLayout:
    def test_partition_is_directory_of_segments(self, store):
        day_dir = store.root / START.isoformat()
        assert day_dir.is_dir()
        assert sorted(p.name for p in day_dir.iterdir()) == \
            sorted([colstore.SIDECAR, colstore.DATA_FILE])
        manifest = json.loads((store.root / "manifest.json").read_text())
        assert {e["format"] for e in manifest.values()} == {FORMAT_V3}

    def test_write_leaves_no_temp_artifacts(self, store):
        leftovers = [
            p for p in store.root.iterdir()
            if p.name.endswith((".tmp", ".old"))
        ]
        assert leftovers == []

    def test_sidecar_zone_map_bounds_hour(self, store):
        partition = store.open_partition(START)
        day_start = timebase.hour_index(START, 0)
        lo, hi = partition.zone("hour")
        assert day_start <= lo <= hi < day_start + 24

    def test_sidecar_preaggregates_are_exact(self, store, week_flows):
        partition = store.open_partition(START)
        _, byte_bins, flow_bins = partition.hour_preaggregates()
        day = _day_rows(week_flows, START)
        assert int(flow_bins.sum()) == len(day)
        assert int(byte_bins.sum()) == day.total_bytes()

    def test_read_day_round_trips(self, store, week_flows):
        for day in timebase.iter_days(START, END):
            table = store.read_day(day)
            for name in COLUMNS:
                assert table.column(name).dtype == COLUMNS[name]
            assert table == _day_rows(week_flows, day)


class TestIntegrity:
    def test_corrupt_sidecar_raises(self, store):
        flip_byte(store.root / MID.isoformat() / colstore.SIDECAR)
        with pytest.raises(FlowStoreError, match="sidecar.*corrupt"):
            store.read_day(MID)

    def test_missing_column_segment_names_column(self, store):
        def _drop_parts(sidecar):
            sidecar["columns"]["src_ip"]["parts"] = {}

        rewrite_sidecar(store.root, MID, _drop_parts)
        with pytest.raises(
            FlowStoreError, match="column 'src_ip'.*missing"
        ):
            FlowStore(store.root).read_day(MID)

    def test_corrupt_column_segment_names_column(self, store):
        # Cut the data file where the n_bytes parts begin: every column
        # before it still verifies, n_bytes runs past the end.
        parts = store.open_partition(MID).sidecar["columns"]["n_bytes"]
        cut = min(p["offset"] for p in parts["parts"].values())
        path = store.root / MID.isoformat() / colstore.DATA_FILE
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(
            FlowStoreError, match="column 'n_bytes'.*corrupt"
        ):
            store.read_day(MID)

    def test_missing_partition_directory_raises(self, store):
        shutil.rmtree(store.root / MID.isoformat())
        with pytest.raises(FlowStoreError, match="missing"):
            store.read_day(MID)

    def test_projected_query_skips_unread_corruption(self, store):
        # Corruption in a column the query never touches is invisible
        # to a projected scan — per-part checksums are the point.
        part = store.open_partition(MID).sidecar["columns"]["src_asn"]
        meta = next(iter(part["parts"].values()))
        flip_byte(store.root / MID.isoformat() / colstore.DATA_FILE,
                  meta["offset"] + meta["nbytes"] // 2)
        result = execute_query(
            store, _spec(group_by=["proto"], aggregates=["bytes"])
        )
        assert result.n_failed == 0
        # A full-column read of the same day still catches it.
        with pytest.raises(FlowStoreError, match="src_asn"):
            store.read_day(MID)

    def test_corrupt_partition_is_query_failure_not_crash(self, store):
        flip_byte(store.root / MID.isoformat() / colstore.SIDECAR)
        result = execute_query(
            store, _spec(group_by=["proto"], aggregates=["bytes"])
        )
        assert result.n_failed == 1
        assert result.partitions_failed[0].day == MID.isoformat()
        assert result.partitions_scanned == 6

    def test_verified_cache_skips_rehashing(self, store):
        colstore.reset_verified_cache()
        obs.configure(telemetry=True)
        try:
            execute_query(
                store, _spec(group_by=["proto"], aggregates=["bytes"])
            )
            first = obs.get_registry().snapshot()["counters"]
            execute_query(
                store,
                _spec(group_by=["proto"], aggregates=["packets"]),
            )
            second = obs.get_registry().snapshot()["counters"]
        finally:
            obs.reset()
        # Second query re-verifies the shared proto parts from the
        # cache instead of re-hashing them.
        assert second.get("colstore.verify-cached", 0) > \
            first.get("colstore.verify-cached", 0)


#: Old partition layouts, by manifest ``format`` (None: a v1 entry,
#: which recorded none).
OLD_FORMATS = [pytest.param(2, id="format-2"),
               pytest.param(None, id="v1-no-format")]


class TestOldFormats:
    """A partition in a format other than v3 is a failed partition."""

    @pytest.fixture(params=OLD_FORMATS)
    def aged(self, request, store, week_flows):
        age_partition(store.root, MID, _day_rows(week_flows, MID),
                      request.param)
        return FlowStore(store.root), request.param

    def test_open_and_read_raise_naming_day_and_format(self, aged):
        store, fmt = aged
        found = f"format {fmt}" if fmt else "no format"
        for read in (store.open_partition, store.read_day):
            with pytest.raises(FlowStoreError) as err:
                read(MID)
            message = str(err.value)
            assert MID.isoformat() in message
            assert found in message
            assert "repro generate --store" in message

    def test_query_fails_the_day_and_aggregates_the_rest(
        self, aged, week_flows
    ):
        store, _ = aged
        spec = _spec(group_by=["transport"], aggregates=["bytes", "flows"])
        plan = plan_query(store, spec)
        assert plan.day_strategies[plan.days.index(MID)] == "unreadable"
        with ScanPool(2, kind="thread") as pool:
            for result in (execute_query(store, spec),
                           execute_query(store, spec, pool=pool)):
                assert [f.day for f in result.partitions_failed] == \
                    [MID.isoformat()]
                assert "repro generate --store" in \
                    result.partitions_failed[0].error
                assert result.partitions_scanned == 6
                assert_matches(result, _without_day(week_flows, MID), spec)


class TestMixedStores:
    """A store sealed one day at a time, out of order and through both
    write calls, answers like one sealed in a single range pass."""

    @pytest.fixture
    def mixed_store(self, tmp_path, week_flows):
        store = FlowStore(tmp_path / "mixed")
        days = list(timebase.iter_days(START, END))
        for i, day in enumerate(reversed(days)):
            if i % 2:
                store.write_day(day, _day_rows(week_flows, day))
            else:
                store.write_range(week_flows, day, day)
        return store

    def test_mixed_store_answers_identically(
        self, mixed_store, store, week_flows
    ):
        for kwargs in PARITY_SPECS:
            spec = _spec(**kwargs)
            results = [execute_query(s, spec) for s in (mixed_store, store)]
            assert results[0].rows == results[1].rows
            assert len({r.rows_scanned for r in results}) == 1
            assert len({r.rows_matched for r in results}) == 1
            assert_matches(results[0], week_flows, spec)


class TestProjection:
    def test_referenced_columns_canonical_order(self):
        spec = _spec(
            where={"hour": {"min": 0, "max": 10}},
            group_by=["transport"], aggregates=["bytes"],
        )
        assert spec.referenced_columns() == (
            "hour", "proto", "src_port", "dst_port", "n_bytes"
        )

    def test_row_count_needs_no_columns(self):
        assert _spec(aggregates=["flows"]).referenced_columns() == ()

    def test_sketch_aggregates_pull_ip_columns(self):
        spec = _spec(aggregates=["distinct_src_ips", "distinct_dst_ips"])
        assert spec.referenced_columns() == ("src_ip", "dst_ip")

    def test_result_reports_projected_io(self, store, week_flows):
        spec = _spec(group_by=["proto"], aggregates=["bytes"])
        narrow = execute_query(store, spec)
        stored = sum(
            store.open_partition(day).column_nbytes(tuple(COLUMNS))
            for day in store.days()
        )
        assert narrow.columns_loaded == ("n_bytes", "proto")
        assert 0 < narrow.bytes_read < stored
        assert_matches(narrow, week_flows, spec)

    def test_bundle_guards_unprojected_columns(self, store):
        partition = store.open_partition(START)
        bundle, nbytes = partition.load(("proto", "n_bytes"))
        assert nbytes == partition.column_nbytes(("proto", "n_bytes"))
        with pytest.raises(KeyError, match="not projected"):
            bundle.column("src_ip")

    def test_bundle_derived_keys_match_table(self, store):
        partition = store.open_partition(START)
        bundle, _ = partition.load(("proto", "src_port", "dst_port"))
        table = store.read_day(START)
        for key in ("service_port", "transport"):
            assert np.array_equal(
                bundle.key_array(key), table.key_array(key)
            )


class TestZonePruning:
    def test_impossible_predicate_prunes_every_partition(self, store):
        plan = plan_query(
            store,
            _spec(where={"src_port": {"min": 100000, "max": 200000}}),
        )
        assert plan.days == ()
        assert plan.pruned_by_zone == 7
        assert plan.estimated_bytes == 0

    def test_v1_partitions_have_no_zone_maps(self, store, week_flows):
        # A v1 entry has no sidecar to prune by: the day stays planned,
        # as unreadable, and the scan fails it.
        age_partition(store.root, MID, _day_rows(week_flows, MID), None)
        aged = FlowStore(store.root)
        spec = _spec(where={"src_port": {"min": 100000, "max": 200000}})
        plan = plan_query(aged, spec)
        assert plan.pruned_by_zone == 6
        assert plan.days == (MID,)
        assert plan.day_strategies == ("unreadable",)
        assert plan.estimated_bytes == 0
        result = execute_query(aged, spec)
        assert result.rows == []
        assert [f.day for f in result.partitions_failed] == [MID.isoformat()]

    def test_pruned_and_scanned_stores_agree(self, store, week_flows):
        spec = _spec(where={"src_port": {"min": 100000, "max": 200000}})
        result = execute_query(store, spec)
        assert result.rows == []
        assert_matches(result, week_flows, spec)

    def test_plan_estimates_projected_bytes(self, store):
        narrow_spec = _spec(group_by=["proto"], aggregates=["bytes"])
        wide_spec = _spec(
            group_by=["proto"],
            aggregates=["bytes", "packets", "distinct_src_ips",
                        "distinct_dst_ips"],
        )
        narrow = plan_query(store, narrow_spec)
        assert narrow.columns == ("proto", "n_bytes")
        # A narrower projection costs fewer encoded bytes.
        wide = plan_query(store, wide_spec)
        assert 0 < narrow.estimated_bytes < wide.estimated_bytes
        # The estimate is what a scan of the projection reads, with or
        # without predicates.
        filtered_spec = _spec(where={"proto": 17},
                              group_by=["service_port"],
                              aggregates=["bytes"])
        for spec in (narrow_spec, filtered_spec):
            assert plan_query(store, spec).estimated_bytes == \
                execute_query(store, spec).bytes_read


class TestZoneBoundaries:
    def test_predicate_at_exact_zone_edge_stays_planned(self, store):
        # A point predicate sitting exactly on the zone's lower edge
        # (value == lo, and == hi when the day holds a single value)
        # must keep the day planned — pruning is strictly "disjoint".
        partition = store.open_partition(START)
        lo, hi = partition.zone("src_port")
        plan = plan_query(
            store, _spec(where={"src_port": {"min": lo, "max": lo}},
                         start=START, end=START),
        )
        assert plan.days == (START,)
        assert plan.pruned_by_zone == 0
        hi_plan = plan_query(
            store, _spec(where={"src_port": {"min": hi, "max": hi}},
                         start=START, end=START),
        )
        assert hi_plan.days == (START,)

    def test_predicate_one_past_zone_edge_prunes(self, store):
        partition = store.open_partition(START)
        _, hi = partition.zone("src_port")
        plan = plan_query(
            store,
            _spec(where={"src_port": {"min": hi + 1, "max": hi + 10}},
                  start=START, end=START),
        )
        assert plan.pruned_by_zone == 1
        assert plan.days == ()

    def test_empty_partition_pruned_before_zones(self, tmp_path,
                                                 week_flows):
        store = FlowStore(tmp_path / "holes")
        empty = week_flows.filter(np.zeros(len(week_flows), dtype=bool))
        store.write_day(START, empty)
        plan = plan_query(store, _spec(aggregates=["bytes", "flows"]))
        assert plan.pruned_empty == 1
        assert plan.days == ()
        result = execute_query(store, _spec(aggregates=["flows"]))
        assert result.rows == []
        assert result.rows_scanned == 0

    def test_all_days_pruned_matches_unpruned_store(self, store, week_flows):
        # The store prunes all seven days; the reference filters every
        # row.  Both must produce the identical empty result.
        spec = _spec(where={"src_port": {"min": 100000, "max": 200000}},
                     group_by=["proto"], aggregates=["bytes"])
        pruned = execute_query(store, spec)
        assert pruned.rows == []
        assert pruned.bytes_read == 0
        assert_matches(pruned, week_flows, spec)


class TestDerivedZones:
    def test_sidecar_records_derived_zones(self, store):
        partition = store.open_partition(START)
        for key in ("service_port", "transport"):
            zone = partition.zone(key)
            assert zone is not None
            lo, hi = zone
            assert 0 <= lo <= hi

    def test_impossible_derived_predicate_prunes(self, store):
        # service ports live below 65536; transport keys encode
        # proto*65536 + service_port, so a band above every generated
        # protocol is impossible and zone-prunes each day.
        for where in (
            {"service_port": {"min": 100000, "max": 200000}},
            {"transport": {"min": 300 * 65536, "max": 400 * 65536}},
        ):
            plan = plan_query(store, _spec(where=where))
            assert plan.pruned_by_zone == 7, where
            assert plan.days == ()

    def test_old_sidecars_without_derived_zones_stay_planned(
        self, store, week_flows
    ):
        # Sidecars without the derived_zones block cannot prune on
        # derived keys: every day stays planned and the scan still
        # answers correctly.
        spec = _spec(where={"service_port": {"min": 100000,
                                             "max": 200000}})

        def _drop_zones(sidecar):
            sidecar.pop("derived_zones", None)

        for day in store.days():
            rewrite_sidecar(store.root, day, _drop_zones)
        legacy = FlowStore(store.root)
        assert legacy.open_partition(START).zone("service_port") is None
        plan = plan_query(legacy, spec)
        assert plan.pruned_by_zone == 0
        assert len(plan.days) == 7
        result = execute_query(legacy, spec)
        assert result.rows == []
        assert_matches(result, week_flows, spec)


class TestSidecarFastPath:
    def test_unfiltered_totals_without_row_io(self, store, week_flows):
        result = execute_query(store, _spec(aggregates=["bytes", "flows"]))
        assert result.rows[0]["bytes"] == week_flows.total_bytes()
        assert result.rows[0]["flows"] == len(week_flows)
        assert result.bytes_read == 0
        assert result.columns_loaded == ()
        assert result.rows_scanned == len(week_flows)

    def test_plan_marks_sidecar_days(self, store):
        plan = plan_query(store, _spec(aggregates=["bytes", "flows"]))
        assert plan.sidecar_days == 7
        assert plan.estimated_bytes == 0

    def test_hourly_series_matches_row_scan(self, store, week_flows):
        spec = _spec(aggregates=["bytes", "flows"], bucket="hour")
        assert_matches(execute_query(store, spec), week_flows, spec)

    def test_hour_window_matches_row_scan(self, store, week_flows):
        day_start = timebase.hour_index(dt.date(2020, 2, 21), 0)
        spec = _spec(
            where={"hour": {"min": day_start + 6, "max": day_start + 17}},
            aggregates=["bytes", "flows"], bucket="hour",
        )
        result = execute_query(store, spec)
        assert result.bytes_read == 0
        assert len(result.rows) == 12
        assert_matches(result, week_flows, spec)


class TestReferenceParity:
    def test_parity_specs_match_reference(self, store, week_flows):
        strategies = set()
        for kwargs in PARITY_SPECS:
            spec = _spec(**kwargs)
            strategies.update(plan_query(store, spec).day_strategies)
            assert_matches(execute_query(store, spec), week_flows, spec)
        # Between them the specs plan both ways to answer a day.
        assert strategies == {"sidecar", "scan"}


class TestModeEquivalence:
    def test_full_load_escape_hatch_bit_identical(self, store, monkeypatch):
        """Sidecar answers and projected scans give the answer of
        loading every column of every partition and filtering it row by
        row."""
        for kwargs in PARITY_SPECS:
            spec = _spec(**kwargs)
            default = execute_query(store, spec).to_dict()
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_sidecar_answerable",
                              lambda spec: False)
                patch.setattr(QuerySpec, "referenced_columns",
                              lambda self: COLUMNS)
                forced = execute_query(store, spec).to_dict()
            assert forced["columns_loaded"] == sorted(COLUMNS)
            for payload in (default, forced):
                # I/O strategy diagnostics legitimately differ (the
                # plan projects different columns and the stage walls
                # are timings); every other field must be bit-identical.
                for volatile in ("wall_s", "bytes_read", "columns_loaded",
                                 "stages", "plan"):
                    payload.pop(volatile)
            assert default == forced

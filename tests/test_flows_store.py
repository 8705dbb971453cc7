"""Unit tests for the partitioned flow store."""

import datetime as dt
import hashlib
import json
import sys
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro import timebase
from repro.flows import colstore
from repro.flows.store import FlowStore, FlowStoreError
from repro.flows.table import COLUMNS, FlowTable
from tests.store_drills import flip_byte, rewrite_sidecar


@pytest.fixture(scope="module")
def three_day_flows(scenario):
    return scenario.isp_ce.generate_flows(
        dt.date(2020, 2, 19), dt.date(2020, 2, 21), fidelity=0.3
    )


@pytest.fixture
def store(tmp_path):
    return FlowStore(tmp_path / "store")


class TestWrites:
    def test_write_and_read_day(self, store, three_day_flows):
        day = dt.date(2020, 2, 19)
        start = timebase.hour_index(day, 0)
        day_flows = three_day_flows.between_hours(start, start + 24)
        store.write_day(day, day_flows)
        assert store.read_day(day) == day_flows
        assert day in store

    def test_write_range_partitions(self, store, three_day_flows):
        written = store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        assert written == 3
        assert store.days() == [
            dt.date(2020, 2, 19), dt.date(2020, 2, 20), dt.date(2020, 2, 21),
        ]

    def test_wrong_day_rejected(self, store, three_day_flows):
        with pytest.raises(ValueError):
            store.write_day(dt.date(2020, 3, 1), three_day_flows)

    def test_rewrite_replaces(self, store, three_day_flows):
        day = dt.date(2020, 2, 19)
        start = timebase.hour_index(day, 0)
        day_flows = three_day_flows.between_hours(start, start + 24)
        store.write_day(day, day_flows)
        store.write_day(day, day_flows.head(10))
        assert len(store.read_day(day)) == 10
        assert store.total_flows() == 10

    def test_empty_partition_allowed(self, store):
        store.write_day(dt.date(2020, 2, 19), FlowTable.empty())
        assert len(store.read_day(dt.date(2020, 2, 19))) == 0

    def test_delete_day(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        store.delete_day(dt.date(2020, 2, 20))
        assert dt.date(2020, 2, 20) not in store
        assert len(store) == 2
        store.delete_day(dt.date(2020, 2, 20))  # no-op


class TestReads:
    def test_read_range_concatenates(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        loaded = store.read_range(
            dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        assert loaded.total_bytes() == three_day_flows.total_bytes()
        assert len(loaded) == len(three_day_flows)

    def test_read_range_skips_missing(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        store.delete_day(dt.date(2020, 2, 20))
        loaded = store.read_range(
            dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        assert len(loaded) < len(three_day_flows)

    def test_require_complete(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 20)
        )
        with pytest.raises(KeyError):
            store.read_range(
                dt.date(2020, 2, 19), dt.date(2020, 2, 21),
                require_complete=True,
            )

    def test_missing_day_raises(self, store):
        with pytest.raises(KeyError):
            store.read_day(dt.date(2020, 1, 1))

    def test_backwards_range_rejected(self, store):
        with pytest.raises(ValueError):
            store.read_range(dt.date(2020, 2, 21), dt.date(2020, 2, 19))


class TestManifest:
    def test_survives_reopen(self, tmp_path, three_day_flows):
        store = FlowStore(tmp_path / "store")
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        reopened = FlowStore(tmp_path / "store")
        assert reopened.days() == store.days()
        assert reopened.total_flows() == len(three_day_flows)
        assert reopened.total_bytes() == three_day_flows.total_bytes()

    def test_totals_track_manifest(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        assert store.total_flows() == len(three_day_flows)

    def test_manifest_is_compact_json(self, store, three_day_flows):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        text = (store.root / "manifest.json").read_text()
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )

    def test_indented_manifest_still_loads(self, tmp_path, three_day_flows):
        # Stores written before the compact manifest used indent=2.
        store = FlowStore(tmp_path / "store")
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        path = store.root / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        reopened = FlowStore(store.root)
        assert reopened.state_token() == store.state_token()
        assert reopened.days() == store.days()
        day = dt.date(2020, 2, 20)
        assert reopened.read_day(day) == store.read_day(day)


class TestRangeEdgeCases:
    def test_same_day_start_and_stop(self, store, three_day_flows):
        day = dt.date(2020, 2, 19)
        store.write_range(three_day_flows, dt.date(2020, 2, 19),
                          dt.date(2020, 2, 21))
        loaded = store.read_range(day, day)
        start = timebase.hour_index(day, 0)
        assert loaded == three_day_flows.between_hours(start, start + 24)

    def test_range_with_no_partitions_is_empty(self, store):
        loaded = store.read_range(
            dt.date(2020, 1, 1), dt.date(2020, 1, 7)
        )
        assert len(loaded) == 0

    def test_missing_interior_day_skipped(self, store, three_day_flows):
        store.write_range(three_day_flows, dt.date(2020, 2, 19),
                          dt.date(2020, 2, 21))
        store.delete_day(dt.date(2020, 2, 20))
        loaded = store.read_range(
            dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        middle = timebase.hour_index(dt.date(2020, 2, 20), 0)
        hours = loaded.column("hour")
        assert len(loaded) > 0
        assert not ((hours >= middle) & (hours < middle + 24)).any()

    def test_rewrite_is_atomic_replacement(self, store, three_day_flows):
        # A re-written day must never leave a stale temp file behind or
        # a partition/manifest mismatch: the partition is fully replaced
        # and immediately readable with a fresh checksum.
        day = dt.date(2020, 2, 19)
        start = timebase.hour_index(day, 0)
        day_flows = three_day_flows.between_hours(start, start + 24)
        store.write_day(day, day_flows)
        before = store.state_token()
        store.write_day(day, day_flows.head(7))
        assert store.read_day(day) == day_flows.head(7)
        assert store.state_token() != before
        assert list(store.root.glob("*.tmp")) == []
        assert list(store.root.glob("*.old")) == []

    def test_day_flows_tracks_manifest(self, store, three_day_flows):
        day = dt.date(2020, 2, 19)
        start = timebase.hour_index(day, 0)
        store.write_day(day, three_day_flows.between_hours(
            start, start + 24
        ))
        assert store.day_flows(day) == len(store.read_day(day))
        with pytest.raises(KeyError):
            store.day_flows(dt.date(2020, 1, 1))


def _canonical(table: FlowTable) -> FlowTable:
    """The table's rows sorted by every column (order-free comparison)."""
    return table.take(
        np.lexsort([table.column(name) for name in reversed(COLUMNS)])
    )


class TestWriteRangeSplit:
    DAYS = (dt.date(2020, 2, 19), dt.date(2020, 2, 21))

    @pytest.fixture(scope="class")
    def shuffled(self, three_day_flows):
        order = np.random.default_rng(7).permutation(len(three_day_flows))
        return three_day_flows.take(order)

    def test_shuffled_table_gives_same_partitions(
        self, tmp_path, three_day_flows, shuffled
    ):
        ordered = FlowStore(tmp_path / "ordered")
        ordered.write_range(three_day_flows.sort_by_hour(), *self.DAYS)
        mixed = FlowStore(tmp_path / "mixed")
        mixed.write_range(shuffled, *self.DAYS)
        assert mixed.days() == ordered.days()
        for day in ordered.days():
            assert mixed.day_flows(day) == ordered.day_flows(day)
            assert _canonical(mixed.read_day(day)) == _canonical(
                ordered.read_day(day)
            )

    def test_partitions_keep_input_row_order(self, store, shuffled):
        store.write_range(shuffled, *self.DAYS)
        hours = shuffled.column("hour")
        for day in store.days():
            start = timebase.hour_index(day, 0)
            mask = (hours >= start) & (hours < start + 24)
            assert store.read_day(day) == shuffled.filter(mask)

    def test_rows_outside_range_dropped(self, store, shuffled):
        day = dt.date(2020, 2, 20)
        assert store.write_range(shuffled, day, day) == 1
        start = timebase.hour_index(day, 0)
        assert store.days() == [day]
        assert _canonical(store.read_day(day)) == _canonical(
            shuffled.between_hours(start, start + 24)
        )

    def test_empty_days_get_empty_partitions(self, store, shuffled):
        first, last = dt.date(2020, 2, 17), dt.date(2020, 2, 23)
        assert store.write_range(shuffled, first, last) == 7
        assert store.days() == list(timebase.iter_days(first, last))
        for day in (first, dt.date(2020, 2, 18), dt.date(2020, 2, 22), last):
            assert store.day_flows(day) == 0
            assert len(store.read_day(day)) == 0
        assert store.total_flows() == len(shuffled)


def _store_files(store: FlowStore) -> dict:
    """Every file under the store, by relative path, as bytes."""
    return {
        str(path.relative_to(store.root)): path.read_bytes()
        for path in sorted(store.root.rglob("*")) if path.is_file()
    }


class TestWriteRangeOnePass:
    """``write_range`` does its range-wide work once per call."""

    DAYS = (dt.date(2020, 2, 17), dt.date(2020, 2, 23))

    @pytest.fixture(scope="class")
    def shuffled(self, three_day_flows):
        order = np.random.default_rng(11).permutation(len(three_day_flows))
        return three_day_flows.take(order)

    def test_matches_per_day_writes_byte_for_byte(self, tmp_path, shuffled):
        ranged = FlowStore(tmp_path / "ranged")
        ranged.write_range(shuffled, *self.DAYS)
        daily = FlowStore(tmp_path / "daily")
        hours = shuffled.column("hour")
        for day in timebase.iter_days(*self.DAYS):
            start = timebase.hour_index(day, 0)
            daily.write_day(
                day, shuffled.filter((hours >= start) & (hours < start + 24))
            )
        # The range has empty days on both ends.
        assert ranged.day_flows(self.DAYS[0]) == 0
        assert ranged.day_flows(self.DAYS[1]) == 0
        assert _store_files(ranged) == _store_files(daily)
        assert ranged.state_token() == daily.state_token()

    def test_one_manifest_write_per_call(self, store, shuffled):
        obs.configure(telemetry=True)
        try:
            store.write_range(shuffled, *self.DAYS)
            store.write_day(dt.date(2020, 2, 19), FlowTable.empty())
            counters = obs.get_registry().snapshot()["counters"]
        finally:
            obs.reset()
        assert counters["store.manifest-writes"] == 2
        assert counters["colstore.partitions-written"] == 8

    def test_failed_day_keeps_earlier_days(
        self, store, shuffled, monkeypatch
    ):
        real_write = colstore.RangeSeal.write

        def write(seal, i, final_dir):
            if i == 3:
                raise OSError("disk full")
            return real_write(seal, i, final_dir)

        monkeypatch.setattr(colstore.RangeSeal, "write", write)
        with pytest.raises(OSError, match="disk full"):
            store.write_range(shuffled, *self.DAYS)
        written = list(timebase.iter_days(self.DAYS[0], dt.date(2020, 2, 19)))
        reopened = FlowStore(store.root)
        assert reopened.days() == written == store.days()
        hours = shuffled.column("hour")
        for day in written:
            start = timebase.hour_index(day, 0)
            mask = (hours >= start) & (hours < start + 24)
            assert reopened.read_day(day) == shuffled.filter(mask)
        assert reopened.state_token() == store.state_token()

    def test_state_token_tracks_each_day(self, store, shuffled, monkeypatch):
        before = store.state_token()
        seen = []
        real_write = colstore.RangeSeal.write

        def write(seal, i, final_dir):
            # Memoize the token as each day starts; the day before it
            # has just been listed, so no two may be equal.
            seen.append(store.state_token())
            return real_write(seal, i, final_dir)

        monkeypatch.setattr(colstore.RangeSeal, "write", write)
        store.write_range(shuffled, *self.DAYS)
        assert seen[0] == before
        assert len(set(seen)) == len(seen) == 7
        token = store.state_token()
        assert token not in seen
        assert token == _fresh_token(store)


class TestIntegrity:
    # Whole-partition drills on the data file and sidecar; the per-part
    # drills live in test_flows_colstore*.py.
    DAY = dt.date(2020, 2, 20)

    @pytest.fixture
    def populated(self, store, three_day_flows):
        store.write_range(three_day_flows, dt.date(2020, 2, 19),
                          dt.date(2020, 2, 21))
        return store

    def _data_file(self, store):
        return store.root / self.DAY.isoformat() / colstore.DATA_FILE

    def test_manifest_records_checksums(self, populated):
        for entry in populated._manifest.values():
            assert len(entry["sha256"]) == 64

    def test_corrupt_partition_raises_flow_store_error(self, populated):
        flip_byte(self._data_file(populated))
        with pytest.raises(FlowStoreError, match="corrupt"):
            populated.read_day(self.DAY)

    def test_truncated_partition_raises_flow_store_error(self, populated):
        victim = self._data_file(populated)
        victim.write_bytes(victim.read_bytes()[:100])
        with pytest.raises(FlowStoreError, match="corrupt"):
            populated.read_day(self.DAY)

    def test_missing_partition_file_raises(self, populated):
        self._data_file(populated).unlink()
        with pytest.raises(
            FlowStoreError, match="data file.*cannot be read"
        ):
            populated.read_day(self.DAY)

    def test_unverifiable_archive_without_checksum_raises(
        self, populated
    ):
        # A manifest entry without a checksum cannot vouch for its
        # sidecar; a broken one must still surface as FlowStoreError
        # (from the parse), not as a json internal error.
        del populated._manifest[self.DAY.isoformat()]["sha256"]
        sidecar = populated.root / self.DAY.isoformat() / colstore.SIDECAR
        sidecar.write_bytes(b"not json")
        with pytest.raises(FlowStoreError, match="cannot be parsed"):
            populated.read_day(self.DAY)

    def test_row_count_mismatch_raises(self, populated):
        def _lie(sidecar):
            sidecar["rows"] += 1

        rewrite_sidecar(populated.root, self.DAY, _lie)
        with pytest.raises(FlowStoreError, match="sidecar reports"):
            FlowStore(populated.root).read_day(self.DAY)

    def test_state_token_stable_across_reopen(self, populated):
        reopened = FlowStore(populated.root)
        assert reopened.state_token() == populated.state_token()

    def test_state_token_changes_on_delete(self, populated):
        before = populated.state_token()
        populated.delete_day(dt.date(2020, 2, 20))
        assert populated.state_token() != before


def _fresh_token(store: FlowStore) -> str:
    """The state token recomputed from the manifest file on disk."""
    path = store.root / "manifest.json"
    manifest = json.loads(path.read_text()) if path.exists() else {}
    payload = json.dumps(manifest, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestStateTokenMemo:
    """The memoized token always equals a fresh recompute."""

    def test_token_tracks_every_mutation(self, store, three_day_flows):
        day = dt.date(2020, 2, 19)
        start = timebase.hour_index(day, 0)
        day_flows = three_day_flows.between_hours(start, start + 24)
        seen = {store.state_token()}
        assert store.state_token() == _fresh_token(store)
        mutations = [
            lambda: store.write_day(day, day_flows),
            lambda: store.write_day(day, day_flows.head(5)),
            lambda: store.write_day(dt.date(2020, 2, 20), FlowTable.empty()),
            lambda: store.delete_day(day),
        ]
        for mutate in mutations:
            store.state_token()  # memoize the pre-mutation token
            mutate()
            token = store.state_token()
            assert token == _fresh_token(store)
            assert token not in seen
            seen.add(token)
        reopened = FlowStore(store.root)
        assert reopened.state_token() == store.state_token()

    def test_token_never_stale_under_concurrent_writes(
        self, store, three_day_flows
    ):
        day = dt.date(2020, 2, 19)
        start = timebase.hour_index(day, 0)
        day_flows = three_day_flows.between_hours(start, start + 24)
        store.write_day(day, day_flows)
        done = threading.Event()

        def read_tokens():
            while not done.is_set():
                store.state_token()

        readers = [threading.Thread(target=read_tokens) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for i in range(20):
                # Rewrites keep the day set, so the manifest never
                # changes size under a concurrent json.dumps.
                store.write_day(day, day_flows.head(10 + i))
                assert store.state_token() == _fresh_token(store)
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for reader in readers:
                reader.join(timeout=10.0)
        assert not any(reader.is_alive() for reader in readers)
        assert store.state_token() == _fresh_token(store)

    def test_token_is_memoized(self, store, three_day_flows, monkeypatch):
        store.write_range(
            three_day_flows, dt.date(2020, 2, 19), dt.date(2020, 2, 21)
        )
        token = store.state_token()
        monkeypatch.setattr(
            json, "dumps",
            lambda *a, **k: pytest.fail("token recomputed while unchanged"),
        )
        assert store.state_token() == token

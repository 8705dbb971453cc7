"""Unit tests for the HyperLogLog distinct-count sketch."""

import numpy as np
import pytest

from repro.flows.hll import HyperLogLog


class TestHyperLogLog:
    def test_empty_counts_zero(self):
        assert HyperLogLog().count() == pytest.approx(0.0, abs=1.0)

    def test_small_exact_range(self):
        sketch = HyperLogLog()
        sketch.add_many(np.arange(100, dtype=np.uint64))
        assert sketch.count() == pytest.approx(100, rel=0.05)

    def test_large_cardinality_within_error(self):
        sketch = HyperLogLog(p=12)
        n = 200_000
        sketch.add_many(np.arange(n, dtype=np.uint64))
        assert sketch.count() == pytest.approx(n, rel=0.05)

    def test_duplicates_not_double_counted(self):
        sketch = HyperLogLog()
        values = np.arange(5000, dtype=np.uint64)
        sketch.add_many(values)
        sketch.add_many(values)
        assert sketch.count() == pytest.approx(5000, rel=0.05)

    def test_add_scalar(self):
        sketch = HyperLogLog()
        sketch.add(42)
        sketch.add(42)
        assert sketch.count() == pytest.approx(1.0, abs=0.5)

    def test_merge_equals_union(self):
        a, b = HyperLogLog(salt=3), HyperLogLog(salt=3)
        a.add_many(np.arange(0, 30_000, dtype=np.uint64))
        b.add_many(np.arange(20_000, 60_000, dtype=np.uint64))
        merged = a.merge(b)
        assert merged.count() == pytest.approx(60_000, rel=0.05)

    def test_merge_requires_same_parameters(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=10).merge(HyperLogLog(p=12))
        with pytest.raises(ValueError):
            HyperLogLog(salt=1).merge(HyperLogLog(salt=2))

    def test_precision_mismatch_message_is_explicit(self):
        with pytest.raises(ValueError, match="precisions.*p=10 vs p=12"):
            HyperLogLog(p=10).merge(HyperLogLog(p=12))
        with pytest.raises(ValueError, match="salt"):
            HyperLogLog(salt=1).union_update(HyperLogLog(salt=2))

    def test_union_update_matches_merge(self):
        a, b = HyperLogLog(salt=7), HyperLogLog(salt=7)
        a.add_many(np.arange(0, 30_000, dtype=np.uint64))
        b.add_many(np.arange(20_000, 60_000, dtype=np.uint64))
        merged = a.merge(b)
        a.union_update(b)
        assert a.count() == merged.count()

    def test_union_update_requires_same_precision(self):
        with pytest.raises(ValueError, match="precision"):
            HyperLogLog(p=10).union_update(HyperLogLog(p=12))

    def test_chunked_stream_merge_equals_one_shot(self):
        # The query engine's access pattern: each partition sketches its
        # own chunk, and partials are union-merged.  The result must be
        # register-identical to sketching the whole stream at once.
        rng = np.random.default_rng(42)
        stream = rng.integers(0, 2**32, size=120_000, dtype=np.uint64)
        one_shot = HyperLogLog(p=12)
        one_shot.add_many(stream)
        merged = HyperLogLog(p=12)
        for chunk in np.array_split(stream, 17):
            partial = HyperLogLog(p=12)
            partial.add_many(chunk)
            merged.union_update(partial)
        assert merged.count() == one_shot.count()
        true_count = len(np.unique(stream))
        assert merged.count() == pytest.approx(true_count, rel=0.05)

    def test_precision_bounds(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=3)
        with pytest.raises(ValueError):
            HyperLogLog(p=19)

    def test_memory_footprint(self):
        assert HyperLogLog(p=12).memory_bytes == 4096

    def test_relative_error_decreases_with_precision(self):
        assert HyperLogLog(p=14).relative_error() < HyperLogLog(
            p=10
        ).relative_error()

    def test_32bit_address_inputs(self):
        sketch = HyperLogLog()
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 2**32, size=50_000, dtype=np.uint64)
        sketch.add_many(addresses)
        true_count = len(np.unique(addresses))
        assert sketch.count() == pytest.approx(true_count, rel=0.05)


"""Tests for the v3 column encodings (dict, delta+bit-pack, raw)."""

import numpy as np
import pytest

from repro.flows import encodings as enc


def _roundtrip(array):
    meta, parts = enc.encode_column(array)
    out = enc.decode_column(meta, parts, array.dtype, array.size)
    assert out.dtype == array.dtype
    assert np.array_equal(out, array)
    return meta, parts


class TestBitPacking:
    @pytest.mark.parametrize("bits", range(0, 13))
    def test_round_trip_every_width(self, bits):
        rng = np.random.default_rng(bits)
        rows = 257  # deliberately not a multiple of 8
        offsets = rng.integers(
            0, max(1, 1 << bits), size=rows, dtype=np.int64
        )
        if bits == 0:
            offsets[:] = 0
        packed = enc.pack_bits(offsets, bits)
        assert packed.nbytes == (rows * bits + 7) // 8
        assert np.array_equal(enc.unpack_bits(packed, rows, bits), offsets)

    def test_empty_and_zero_bits(self):
        assert enc.pack_bits(np.zeros(0, dtype=np.int64), 5).size == 0
        assert enc.unpack_bits(
            np.zeros(0, dtype=np.uint8), 0, 5
        ).size == 0
        assert np.array_equal(
            enc.unpack_bits(np.zeros(0, dtype=np.uint8), 4, 0),
            np.zeros(4, dtype=np.int64),
        )


class TestDictEncoding:
    def test_low_cardinality_round_trip(self):
        rng = np.random.default_rng(7)
        proto = rng.choice(
            np.array([6, 17, 47, 50], dtype=np.int16), size=1000
        )
        meta, parts = _roundtrip(proto)
        assert meta["encoding"] == enc.DICT
        assert meta["cardinality"] == 4
        assert parts["codes"].dtype == np.uint8
        # The value table lives in its part; the metadata stays small.
        assert set(meta) == {"encoding", "cardinality", "codes_dtype",
                             "values_dtype"}

    def test_cardinality_cap_rejects(self):
        big = np.arange(enc.DICT_MAX_CARD + 1, dtype=np.int64)
        assert enc.dict_encode(big) is None

    def test_corrupt_codes_raise(self):
        meta, parts = enc.dict_encode(
            np.array([5, 5, 9], dtype=np.int64)
        )[0], enc.dict_encode(np.array([5, 5, 9], dtype=np.int64))[1]
        bad = dict(parts)
        bad["codes"] = np.array([0, 1, 7], dtype=np.uint8)
        with pytest.raises(enc.EncodingError):
            enc.dict_decode(bad, meta, np.dtype(np.int64))


def _numpy_dict_parts(array):
    """Dictionary parts straight from ``np.unique`` (the reference)."""
    return np.unique(array, return_inverse=True)


# Spans below, at and above the row count, signed and unsigned, near
# the dtype limits, and uint64 (which the bincount path never takes).
DICT_CASES = [
    np.array([-3, 7, -3, 0, 7, 7, 2, -1, 5, 0, 1], dtype=np.int16),
    np.array([-32768, 32767, 0], dtype=np.int16),
    np.arange(10, dtype=np.int64)[::-1].copy(),
    np.array([0, 10] * 5, dtype=np.int64),
    np.array([0, 11] * 5, dtype=np.int64),
    np.array([2**32 - 1, 2**32 - 5, 2**32 - 1], dtype=np.uint32),
    np.array([-2**63, -2**63 + 2, -2**63], dtype=np.int64),
    np.array([2**64 - 1, 3, 3], dtype=np.uint64),
    np.array([42], dtype=np.int32),
    np.random.default_rng(5).integers(0, 700, size=1000).astype(np.int32),
]


class TestDictMatchesUnique:
    @pytest.mark.parametrize("array", DICT_CASES)
    def test_parts_and_stats_match_np_unique(self, array):
        values, codes = _numpy_dict_parts(array)
        meta, parts = enc.dict_encode(array)
        assert parts["values"].dtype == array.dtype
        assert np.array_equal(parts["values"], values)
        assert np.array_equal(parts["codes"], codes)
        assert meta["cardinality"] == values.size


class TestSegmentUnique:
    """One call gives every segment's ``_unique``, exactly."""

    @pytest.mark.parametrize("array", DICT_CASES + [
        np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
        np.array([-2**63, 2**63 - 1, 0, -2**63], dtype=np.int64),
    ])
    def test_matches_unique_per_segment(self, array):
        rng = np.random.default_rng(array.size)
        cuts = np.sort(rng.integers(0, array.size + 1, size=3))
        bounds = np.concatenate(([0], cuts, cuts[-1:], [array.size]))
        values, codes, counts, value_bounds = enc.segment_unique(
            array, bounds)
        for i in range(len(bounds) - 1):
            want = enc._unique(array[bounds[i]:bounds[i + 1]])
            got = (values[value_bounds[i]:value_bounds[i + 1]],
                   codes[bounds[i]:bounds[i + 1]],
                   counts[value_bounds[i]:value_bounds[i + 1]])
            assert got[0].dtype == want[0].dtype
            for part, expected in zip(got, want):
                np.testing.assert_array_equal(part, expected)


class TestDeltaEncoding:
    def test_sorted_hours_pack_tight(self):
        hours = np.repeat(np.arange(24, dtype=np.int64), 40)
        meta, parts = enc.delta_encode(hours)
        assert meta["bits"] == 1
        assert parts["deltas"].nbytes <= hours.size // 8 + 1
        out = enc.delta_decode(parts, meta, hours.dtype, hours.size)
        assert np.array_equal(out, hours)

    def test_negative_deltas(self):
        x = np.array([100, 90, 95, 200, 199], dtype=np.int64)
        meta, parts = enc.delta_encode(x)
        assert np.array_equal(
            enc.delta_decode(parts, meta, x.dtype, x.size), x
        )

    def test_unsorted_data_still_exact(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-5000, 5000, size=777, dtype=np.int64)
        meta, parts = enc.delta_encode(x)
        assert np.array_equal(
            enc.delta_decode(parts, meta, x.dtype, x.size), x
        )

    def test_single_element_and_empty(self):
        one = np.array([42], dtype=np.int32)
        meta, parts = enc.delta_encode(one)
        assert meta["bits"] == 0
        assert np.array_equal(
            enc.delta_decode(parts, meta, one.dtype, 1), one
        )
        empty = np.zeros(0, dtype=np.int64)
        meta, parts = enc.delta_encode(empty)
        assert enc.delta_decode(parts, meta, empty.dtype, 0).size == 0

    def test_span_guard_rejects_wide_ranges(self):
        wide = np.array([0, 1 << 62], dtype=np.int64)
        assert enc.delta_encode(wide) is None

    def test_max_nbytes_bounds_packed_size(self):
        hours = np.repeat(np.arange(24, dtype=np.int64), 40)
        meta, parts = enc.delta_encode(hours)
        size = parts["deltas"].nbytes
        assert size == ((hours.size - 1) * meta["bits"] + 7) // 8
        bounded = enc.delta_encode(hours, max_nbytes=size)
        assert bounded[0] == meta
        assert np.array_equal(bounded[1]["deltas"], parts["deltas"])
        assert enc.delta_encode(hours, max_nbytes=size - 1) is None

    def test_negative_budget_rejects_even_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert enc.delta_encode(empty, max_nbytes=-1) is None
        assert enc.delta_encode(empty, max_nbytes=0) is not None


class TestSealChoice:
    def test_low_card_column_prefers_dict(self):
        # Delta would be a few bytes smaller, but a small dict decodes
        # with one gather — it must win anyway.
        rng = np.random.default_rng(7)
        proto = rng.choice(
            np.array([6, 17, 47, 50], dtype=np.int16), size=1000
        )
        meta, _ = enc.encode_column(proto)
        assert meta["encoding"] == enc.DICT

    def test_high_entropy_falls_back_to_raw(self):
        rng = np.random.default_rng(13)
        noise = rng.integers(0, 1 << 62, size=500, dtype=np.int64)
        meta, parts = enc.encode_column(noise)
        assert meta["encoding"] == enc.RAW
        assert parts["raw"].nbytes == noise.nbytes

    def test_sorted_column_prefers_delta(self):
        hours = np.repeat(np.arange(24, dtype=np.int64), 100)
        meta, _ = enc.encode_column(hours)
        # card 24 > DICT_PREFERRED_MAX_CARD, so the outright-dict rule
        # is off and the 1-bit delta wins on size.
        assert meta["encoding"] == enc.DELTA

    @pytest.mark.parametrize("seed", range(6))
    def test_choice_matches_packing_every_candidate(self, seed):
        # The rule with delta always packed before its size is compared.
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 3000))
        jitter = int(rng.integers(0, 1 << int(rng.integers(0, 12))))
        base = np.sort(rng.integers(0, 400, size=rows))
        array = base + rng.integers(0, jitter + 1, size=rows)
        raw_nbytes = array.nbytes
        expected, access = None, raw_nbytes
        meta, parts = enc.dict_encode(array)
        size = sum(p.nbytes for p in parts.values())
        if size < raw_nbytes:
            if meta["cardinality"] <= enc.DICT_PREFERRED_MAX_CARD:
                expected = (meta, parts)
            access = size
        if expected is None:
            delta_meta, delta_parts = enc.delta_encode(array)
            delta_size = delta_parts["deltas"].nbytes
            if delta_size * enc.DELTA_WIN_FACTOR < access:
                expected = (delta_meta, delta_parts)
            elif access < raw_nbytes:
                expected = (meta, parts)
            else:
                expected = ({"encoding": enc.RAW}, {"raw": array})
        got_meta, got_parts = enc.encode_column(array)
        assert got_meta == expected[0]
        assert got_parts.keys() == expected[1].keys()
        for role, part in expected[1].items():
            assert np.array_equal(got_parts[role], part)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.uint32])
    def test_empty_arrays_round_trip(self, dtype):
        _roundtrip(np.zeros(0, dtype=dtype))

    def test_unknown_encoding_raises(self):
        with pytest.raises(enc.EncodingError):
            enc.decode_column(
                {"encoding": "zstd-fancy"},
                {"raw": np.zeros(3, dtype=np.int64)},
                np.dtype(np.int64), 3,
            )

"""Masked and per-key hourly sums against plain-numpy references.

``FlowTable.hourly_bytes``/``hourly_connections`` with ``where=`` and
``FlowTable.hourly_bytes_by`` answer the per-port, per-class and
per-direction questions of Figs. 7, 9 and 12 without copying rows.  On
generated tables they must equal an int64 ``np.add.at`` over the raw
columns and the sub-table answer (``filter(mask).hourly_*``) exactly:
for the empty table, all-false and all-true masks, hours on both sides
of the window, keys shared by many rows, and byte sums past 2**53.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.record import (
    PROTO_ESP,
    PROTO_GRE,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.flows.table import FlowTable

PROTOS = (PROTO_TCP, PROTO_UDP, PROTO_GRE, PROTO_ESP, PROTO_ICMP)

#: Hours drawn for rows; windows start inside or before this span and
#: may end past it, so rows fall on both sides of every window.
N_HOURS = 48


@st.composite
def hourly_cases(draw):
    """(table, mask, start, stop) over a random table."""
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Each value exceeds 2**53, so every non-trivial sum does too
        # and a float64 accumulation would round it.
        n_bytes = rng.integers(2**53 + 1, 2**54, n)
    else:
        n_bytes = rng.integers(0, 10**6, n)
    table = FlowTable.from_arrays(
        hour=rng.integers(0, N_HOURS, n),
        src_ip=rng.integers(0, 30, n).astype(np.uint32),
        dst_ip=rng.integers(0, 30, n).astype(np.uint32),
        src_asn=rng.integers(1, 5, n),
        dst_asn=rng.integers(1, 5, n),
        proto=rng.choice(PROTOS, n).astype(np.int16),
        src_port=rng.choice([22, 443, 50000, 60000], n).astype(np.int32),
        dst_port=rng.choice([80, 443, 4500, 55000], n).astype(np.int32),
        n_bytes=n_bytes,
        n_packets=rng.integers(1, 100, n),
        connections=rng.integers(0, 2**40, n),
    )
    kind = draw(st.sampled_from(["none", "all", "random"]))
    if kind == "random":
        mask = rng.random(n) < draw(st.floats(0.0, 1.0))
    else:
        mask = np.full(n, kind == "all")
    start = draw(st.integers(0, N_HOURS))
    stop = start + draw(st.integers(1, 30))
    return table, mask, start, stop


def naive_hourly(table, column, mask, start, stop):
    """Per-hour int64 sums of ``column`` over masked rows, no index."""
    hours = table.column("hour")
    keep = mask & (hours >= start) & (hours < stop)
    out = np.zeros(stop - start, dtype=np.int64)
    np.add.at(out, hours[keep] - start, table.column(column)[keep])
    return out


def naive_hourly_by(table, key, start, stop):
    """Sorted key values and per-(key, hour) int64 byte sums, no index."""
    keys = table.key_array(key)
    values = np.unique(keys)
    hours = table.column("hour")
    keep = (hours >= start) & (hours < stop)
    out = np.zeros((len(values), stop - start), dtype=np.int64)
    np.add.at(
        out,
        (np.searchsorted(values, keys[keep]), hours[keep] - start),
        table.column("n_bytes")[keep],
    )
    return values, out


class TestMaskedHourlySums:
    @settings(max_examples=60, deadline=None)
    @given(case=hourly_cases())
    def test_matches_add_at_reference_and_sub_table(self, case):
        table, mask, start, stop = case
        for method, column in (
            (FlowTable.hourly_bytes, "n_bytes"),
            (FlowTable.hourly_connections, "connections"),
        ):
            masked = method(table, start, stop, where=mask)
            assert masked.dtype == np.int64
            assert np.array_equal(
                masked, naive_hourly(table, column, mask, start, stop)
            )
            assert np.array_equal(
                masked, method(table.filter(mask), start, stop)
            )
            assert np.array_equal(
                method(table, start, stop, where=np.ones(len(table), bool)),
                method(table, start, stop),
            )

    def test_sum_past_2_53_is_exact(self):
        table = FlowTable.from_arrays(**{
            name: np.zeros(3, dtype=np.int64)
            for name in ("hour", "src_ip", "dst_ip", "src_asn", "dst_asn",
                         "proto", "src_port", "dst_port", "n_packets")
        }, n_bytes=np.array([2**53, 1, 7]))
        masked = table.hourly_bytes(0, 1, where=np.array([True, True, False]))
        assert int(masked[0]) == 2**53 + 1

    @pytest.mark.parametrize("mask", [
        np.ones(3, dtype=np.int64),
        np.ones(2, dtype=bool),
        np.ones((3, 1), dtype=bool),
    ])
    def test_rejects_masks_that_are_not_one_bool_per_row(self, mask):
        table = FlowTable.from_arrays(
            hour=np.arange(3), src_ip=np.zeros(3), dst_ip=np.zeros(3),
            src_asn=np.zeros(3), dst_asn=np.zeros(3), proto=np.zeros(3),
            src_port=np.zeros(3), dst_port=np.zeros(3),
            n_bytes=np.ones(3), n_packets=np.ones(3),
        )
        with pytest.raises(ValueError, match="boolean array"):
            table.hourly_bytes(0, 3, where=mask)
        with pytest.raises(ValueError, match="boolean array"):
            table.filter(mask)


class TestHourlyBytesBy:
    @settings(max_examples=60, deadline=None)
    @given(case=hourly_cases(), key=st.sampled_from(
        ["transport", "service_port", "dst_port", "src_asn"]
    ))
    def test_matches_add_at_reference_and_sub_tables(self, case, key):
        table, _, start, stop = case
        values, matrix = table.hourly_bytes_by(key, start, stop)
        assert matrix.dtype == np.int64
        assert matrix.shape == (len(values), stop - start)
        ref_values, ref_matrix = naive_hourly_by(table, key, start, stop)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(matrix, ref_matrix)
        keys = table.key_array(key)
        for value, row in zip(values, matrix):
            sub = table.filter(keys == value)
            assert np.array_equal(row, sub.hourly_bytes(start, stop))

    def test_empty_table(self):
        values, matrix = FlowTable.empty().hourly_bytes_by("transport", 5, 9)
        assert values.shape == (0,)
        assert matrix.shape == (0, 4)
        assert matrix.dtype == np.int64

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="stop must be greater"):
            FlowTable.empty().hourly_bytes_by("transport", 5, 5)

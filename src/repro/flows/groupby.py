"""Group-index aggregation engine.

Every analysis in the reproduction reduces to the same primitive:
*group rows of a flow table by a key column and sum a value column*.
At real vantage points the tables hold billions of rows (5.2 B flows at
the EDU network), and one ``run_all`` sweep issues dozens of such
aggregations against the same handful of cached tables — hourly byte
binning, per-AS byte totals, per-transport-key volumes, distinct-IP
counts.  Re-factorizing the key column for every call wastes the one
expensive step (a sort) that all of them share.

:class:`GroupIndex` captures one factorization so it can be reused:

* ``values`` — the sorted unique key values,
* ``codes`` — per-row group ids (``values[codes]`` reconstructs the
  key column),
* ``order`` — a stable permutation sorting rows by group,
* ``starts`` — the start offset of each group's segment in ``order``.

Given the index, any value column reduces with one gather and one
:func:`numpy.add.reduceat` — **integer exact**, unlike
``np.bincount(..., weights=...)`` which accumulates in float64 and
silently corrupts byte totals above 2**53.  Multi-column grouping
composes integer codes (:meth:`GroupIndex.compose`) without ever
materializing tuple keys.

:class:`~repro.flows.table.FlowTable` memoizes one index per key
column (and per derived key such as the service port), exploiting its
immutable-by-convention contract; see :meth:`FlowTable.group_index`.

Setting the ``REPRO_NO_GROUP_INDEX`` environment variable (to anything
non-empty) routes every table aggregation through the index-free
reference implementations in this module (:func:`group_sums`,
:func:`group_counts`) — slower, but bit-identical, which is what the
equivalence tests assert.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

import repro.obs as obs

#: Environment variable disabling index memoization and routing
#: aggregations through the naive reference path.
DISABLE_ENV = "REPRO_NO_GROUP_INDEX"


#: Below this many rows a comparison sort beats the radix passes' setup.
_RADIX_MIN_ROWS = 1024


def engine_enabled() -> bool:
    """Whether the memoized group-index engine is active."""
    return not os.environ.get(DISABLE_ENV)


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(keys, kind="stable")`` returns.

    Integer keys whose span (max − min) fits 32 bits are ordered by a
    least-significant-digit radix sort of their uint16 offsets from the
    minimum: numpy sorts 16-bit keys stably with a linear-time radix
    sort instead of timsort.  A span below 2**16 takes one pass; below
    2**32 two (the low half, then the high half gathered through the
    first order).  Offsets are formed in the narrow type itself — the
    casts wrap modulo 2**16 / 2**32, and so does the subtraction, which
    makes ``key - min`` exact without an int64/uint64 intermediate.
    Other keys, huge spans and short arrays take the comparison sort.
    """
    if keys.dtype.kind not in "iu" or keys.shape[0] < _RADIX_MIN_ROWS:
        return np.argsort(keys, kind="stable")
    low = int(keys.min())
    span = int(keys.max()) - low
    if span < 1 << 16:
        offsets = keys.astype(np.uint16)
        offsets -= np.uint16(low & 0xFFFF)
        return np.argsort(offsets, kind="stable")
    if span >= 1 << 32:
        return np.argsort(keys, kind="stable")
    offsets = keys.astype(np.uint32)
    offsets -= np.uint32(low & 0xFFFFFFFF)
    order = np.argsort(offsets.astype(np.uint16), kind="stable")
    offsets >>= 16
    high = offsets.astype(np.uint16)[order]
    return order[np.argsort(high, kind="stable")]


@dataclass(frozen=True)
class GroupIndex:
    """A reusable factorization of one key array.

    Built with :meth:`from_values` from one stable ordering of the keys
    (:func:`stable_order`: a radix sort for integer keys of moderate
    span, else a stable argsort) rather than ``np.unique`` followed by
    a second sort of the inverse, and safe to share across threads: all
    four arrays are read-only.
    """

    values: np.ndarray  #: sorted unique key values, shape (n_groups,)
    codes: np.ndarray  #: per-row group id into ``values``, int64
    order: np.ndarray  #: stable row permutation grouping equal keys
    starts: np.ndarray  #: segment start offsets in ``order``, (n_groups,)

    @classmethod
    def from_values(cls, keys: np.ndarray) -> "GroupIndex":
        """Factorize ``keys`` (any 1-D integer-like array)."""
        keys = np.asarray(keys)
        n = keys.shape[0]
        if n == 0:
            return cls(
                values=keys[:0].copy(),
                codes=np.empty(0, dtype=np.int64),
                order=np.empty(0, dtype=np.intp),
                starts=np.empty(0, dtype=np.intp),
            )
        order = stable_order(keys)
        sorted_keys = keys[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
        starts = np.flatnonzero(new_group)
        values = sorted_keys[starts]
        sorted_codes = np.cumsum(new_group) - 1
        codes = np.empty(n, dtype=np.int64)
        codes[order] = sorted_codes
        for arr in (values, codes, order, starts):
            arr.flags.writeable = False
        return cls(values=values, codes=codes, order=order, starts=starts)

    # -- shape -------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_groups(self) -> int:
        return self.values.shape[0]

    def __len__(self) -> int:
        return self.n_groups

    # -- reductions --------------------------------------------------------

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-group sums of ``values``, exact in the values' dtype.

        Integer columns accumulate as integers (``np.add.reduceat``
        over contiguous segments), so int64 byte counters never round.
        """
        values = np.asarray(values)
        if values.shape[0] != self.n_rows:
            raise ValueError(
                f"values length {values.shape[0]} does not match "
                f"index over {self.n_rows} rows"
            )
        if self.n_groups == 0:
            return np.zeros(0, dtype=values.dtype)
        return np.add.reduceat(values[self.order], self.starts)

    def counts(self) -> np.ndarray:
        """Number of rows in each group."""
        return np.diff(self.starts, append=self.n_rows).astype(np.int64)

    # -- composition -------------------------------------------------------

    def compose(self, other: "GroupIndex") -> Tuple["GroupIndex", int]:
        """Factorize the pair key ``(self key, other key)`` per row.

        Combines the two code arrays into one integer key
        (``self.codes * other.n_groups + other.codes``) instead of
        materializing tuples; the returned index groups rows by the
        *pair* of keys.  Also returns the radix (``other.n_groups``),
        so callers can recover the component codes of each pair group::

            pair, radix = hour_index.compose(ip_index)
            hour_codes = pair.values // radix
            ip_codes = pair.values % radix

        Both input indexes must cover the same rows.
        """
        if other.n_rows != self.n_rows:
            raise ValueError("cannot compose indexes over different tables")
        radix = max(other.n_groups, 1)
        combined = self.codes * radix + other.codes
        return GroupIndex.from_values(combined), radix


# -- reference (index-free) implementations --------------------------------


def group_sums(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys and exact per-group sums, without an index.

    The ``REPRO_NO_GROUP_INDEX`` fallback: one ``np.unique`` per call,
    accumulation via ``np.add.at`` in the values' own dtype (exact for
    int64, unlike float64 ``bincount`` weights).  Bit-identical to
    :meth:`GroupIndex.sum` over :attr:`GroupIndex.values`.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(uniq.shape[0], dtype=values.dtype)
    np.add.at(sums, inverse, values)
    return uniq, sums


def group_counts(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys and their occurrence counts (fallback path)."""
    uniq, counts = np.unique(np.asarray(keys), return_counts=True)
    return uniq, counts.astype(np.int64)


def record_build(key: str, n_rows: int) -> None:
    """Count one index construction in the metrics registry."""
    if obs.enabled():
        registry = obs.get_registry()
        registry.counter("groupby.index-builds").inc()
        registry.counter("groupby.index-rows").inc(n_rows)


def record_reuse() -> None:
    """Count one memoized-index reuse in the metrics registry."""
    obs.get_registry().counter("groupby.index-reuses").inc()


def record_fallback() -> None:
    """Count one naive-path aggregation in the metrics registry."""
    obs.get_registry().counter("groupby.fallbacks").inc()

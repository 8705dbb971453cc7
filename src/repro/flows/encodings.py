"""Column encodings for the v3 partition format.

Each encoder turns a 1-D numpy array into one or more byte *parts* plus a
JSON-serializable metadata dict; the matching decoder reconstructs the exact
array (same dtype, same values).  Encoders are pure functions of the input
array so seal decisions are deterministic.

Encodings:

- ``raw``   — the array's own bytes, C-contiguous.  Universal fallback.
- ``dict``  — sorted unique values + small-dtype codes.  Chosen for
  low-cardinality columns (proto, ports, ASNs).
- ``delta`` — first value + bit-packed per-row deltas.  Chosen for
  near-sorted columns (hour) where deltas fit in a few bits per row.

Bit packing is MSB-first via ``np.packbits`` over a ``(rows, bits)`` bit
matrix, so the packed size is ``ceil(rows * bits / 8)`` bytes.
"""
from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

RAW = "raw"
DICT = "dict"
DELTA = "delta"

ENCODINGS = (RAW, DICT, DELTA)

# Above this many distinct values a dictionary stops paying for itself.
DICT_MAX_CARD = 65536
# Up to this many distinct values a dictionary that beats raw is sealed
# even where delta would be smaller: a dict column decodes with one
# gather, while delta pays an unpack plus a prefix sum on every scan.
DICT_PREFERRED_MAX_CARD = 16

# Keep delta spans comfortably inside int64 arithmetic.
_DELTA_MAX_SPAN = 1 << 62


class EncodingError(ValueError):
    """Raised when encoded parts and metadata are inconsistent."""


def codes_dtype(cardinality: int) -> np.dtype:
    """Smallest unsigned dtype able to index ``cardinality`` dictionary slots."""
    if cardinality <= 1 << 8:
        return np.dtype(np.uint8)
    if cardinality <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


# ---------------------------------------------------------------------------
# bit packing


def pack_bits(offsets: np.ndarray, bits: int) -> np.ndarray:
    """Pack non-negative int64 ``offsets`` into ``bits`` bits each (MSB first)."""
    if bits == 0 or offsets.size == 0:
        return np.zeros(0, dtype=np.uint8)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    matrix = (offsets.astype(np.uint64)[:, None] >> shifts) & np.uint64(1)
    return np.packbits(matrix.astype(np.uint8).reshape(-1))


def unpack_bits(packed: np.ndarray, rows: int, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns int64 offsets of length ``rows``."""
    if bits == 0 or rows == 0:
        return np.zeros(rows, dtype=np.int64)
    need = rows * bits
    raw = np.unpackbits(packed, count=need).astype(np.int64)
    matrix = raw.reshape(rows, bits)
    weights = (np.int64(1) << np.arange(bits - 1, -1, -1, dtype=np.int64))
    return matrix @ weights


# ---------------------------------------------------------------------------
# dictionary encoding


def _unique(array: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(array, return_inverse=True, return_counts=True)``.

    Integer arrays whose value span is no wider than their length are
    counted with one ``bincount`` instead of sorted.
    """
    if (array.size and array.dtype.kind in "iu"
            and np.can_cast(array.dtype, np.int64)):
        lo, hi = int(array.min()), int(array.max())
        if hi - lo < array.size:
            offsets = array.astype(np.intp) - lo
            slot_counts = np.bincount(offsets, minlength=hi - lo + 1)
            present = np.flatnonzero(slot_counts)
            slot_codes = np.cumsum(slot_counts > 0) - 1
            values = (present + lo).astype(array.dtype)
            return values, slot_codes[offsets], slot_counts[present]
    return np.unique(array, return_inverse=True, return_counts=True)


def segment_unique(
    array: np.ndarray, bounds: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_unique` of every segment ``array[bounds[i]:bounds[i + 1]]``.

    One :func:`_unique` over a combined (segment, value) key replaces a
    call per segment.  Returns ``(values, codes, counts, value_bounds)``:
    segment ``i``'s sorted distinct values and their counts are
    ``values[value_bounds[i]:value_bounds[i + 1]]`` (likewise
    ``counts``), and ``codes[bounds[i]:bounds[i + 1]]`` index them,
    exactly as ``_unique`` of the segment alone returns them.
    """
    n_segments = len(bounds) - 1
    segment = np.repeat(
        np.arange(n_segments, dtype=np.int64), np.diff(bounds))
    lo, hi = (int(array.min()), int(array.max())) if array.size else (0, 0)
    if (np.can_cast(array.dtype, np.int64)
            and (hi - lo + 1) * n_segments < 1 << 63):
        distinct, slots, span = None, array.astype(np.int64) - lo, hi - lo + 1
    else:
        # Too wide to pair with the segment in one int64: key on each
        # value's rank among the distinct values instead.
        distinct, slots = np.unique(array, return_inverse=True)
        span = distinct.size
    keys, inverse, counts = _unique(segment * span + slots)
    key_segments = keys // span
    key_slots = keys - key_segments * span
    values = ((key_slots + lo).astype(array.dtype) if distinct is None
              else distinct[key_slots])
    value_bounds = np.searchsorted(key_segments, np.arange(n_segments + 1))
    return values, inverse - value_bounds[segment], counts, value_bounds


def dict_encode(
    array: np.ndarray,
    unique: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]] | None:
    """Encode via sorted unique values + codes, or None when not worthwhile.

    ``unique`` is the ``(values, codes)`` of ``_unique(array)`` when the
    caller already has them (sealing takes them from
    :func:`segment_unique`).
    """
    values, codes = _unique(array)[:2] if unique is None else unique
    card = int(values.size)
    if card > DICT_MAX_CARD:
        return None
    cdtype = codes_dtype(max(card, 1))
    codes = np.ascontiguousarray(codes.astype(cdtype))
    values = np.ascontiguousarray(values)
    meta: Dict[str, Any] = {
        "encoding": DICT,
        "cardinality": card,
        "codes_dtype": cdtype.str,
        "values_dtype": values.dtype.str,
    }
    return meta, {"codes": codes, "values": values}


def dict_decode(parts: Dict[str, np.ndarray], meta: Dict[str, Any],
                dtype: np.dtype) -> np.ndarray:
    values = parts["values"]
    codes = parts["codes"]
    if values.size == 0:
        if codes.size:
            raise EncodingError("dict codes present but value table empty")
        return np.zeros(0, dtype=dtype)
    if int(codes.max(initial=0)) >= values.size:
        raise EncodingError("dict code out of range for value table")
    return values[codes].astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# delta encoding


def delta_encode(
    array: np.ndarray, max_nbytes: Optional[int] = None,
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]] | None:
    """Encode as base + bit-packed deltas, or None when deltas are too wide.

    ``max_nbytes`` bounds the packed deltas' size; past it the encoder
    returns None without packing.
    """
    if max_nbytes is not None and max_nbytes < 0:
        return None
    if array.size == 0:
        return (
            {"encoding": DELTA, "base": 0, "delta_min": 0, "bits": 0},
            {"deltas": np.zeros(0, dtype=np.uint8)},
        )
    if array.dtype.kind not in "iu":
        return None
    as_int = array.astype(np.int64)
    # Span guard with Python ints: huge uint64-ish ranges would overflow diff.
    lo, hi = int(as_int.min()), int(as_int.max())
    if hi - lo >= _DELTA_MAX_SPAN:
        return None
    deltas = np.diff(as_int)
    if deltas.size:
        dmin, dmax = int(deltas.min()), int(deltas.max())
    else:
        dmin = dmax = 0
    if dmax - dmin >= _DELTA_MAX_SPAN:
        return None
    bits = int(dmax - dmin).bit_length()
    if max_nbytes is not None and (deltas.size * bits + 7) // 8 > max_nbytes:
        return None
    offsets = (deltas - dmin).astype(np.int64)
    packed = pack_bits(offsets, bits)
    meta = {
        "encoding": DELTA,
        "base": int(as_int[0]),
        "delta_min": dmin,
        "bits": bits,
    }
    return meta, {"deltas": packed}


def delta_decode(parts: Dict[str, np.ndarray], meta: Dict[str, Any],
                 dtype: np.dtype, rows: int) -> np.ndarray:
    if rows == 0:
        return np.zeros(0, dtype=dtype)
    bits = int(meta["bits"])
    offsets = unpack_bits(parts["deltas"], rows - 1, bits)
    deltas = offsets + np.int64(meta["delta_min"])
    out = np.empty(rows, dtype=np.int64)
    out[0] = np.int64(meta["base"])
    if rows > 1:
        np.cumsum(deltas, out=out[1:])
        out[1:] += np.int64(meta["base"])
    return out.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# seal-time choice


#: Delta must beat the best random-access encoding by this factor to be
#: chosen.  A dict column decodes with one gather and a raw column not
#: at all, but a delta column pays a whole-column unpack + prefix sum on
#: *every* scan — only a large size win (near-sorted columns like
#: ``hour``) covers that decode tax.
DELTA_WIN_FACTOR = 4

def encode_column(
    array: np.ndarray,
    unique: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Pick the cheapest-to-scan encoding for ``array``.

    Returns ``(meta, parts)`` where ``meta['encoding']`` names the winner and
    ``parts`` maps part-role names to contiguous arrays to be serialized.
    A dictionary of at most :data:`DICT_PREFERRED_MAX_CARD` values wins
    whenever it beats raw.  Otherwise the smallest wins among the
    random-access encodings (dict, raw); delta is admitted only past
    :data:`DELTA_WIN_FACTOR`.  ``unique`` is passed on to
    :func:`dict_encode`.
    """
    raw = np.ascontiguousarray(array)
    raw_nbytes = raw.nbytes

    access_size = raw_nbytes
    best = None
    encoded = dict_encode(array, unique)
    if encoded is not None:
        meta, parts = encoded
        size = sum(p.nbytes for p in parts.values())
        if (meta["cardinality"] <= DICT_PREFERRED_MAX_CARD
                and size < raw_nbytes):
            return meta, parts
        if size < raw_nbytes:
            best = (meta, parts)
            access_size = size

    # Largest packed size with size * DELTA_WIN_FACTOR < access_size.
    encoded = delta_encode(
        array, max_nbytes=(access_size - 1) // DELTA_WIN_FACTOR
    )
    if encoded is not None:
        return encoded

    if best is None:
        return {"encoding": RAW}, {"raw": raw}
    return best[0], best[1]


def decode_column(meta: Dict[str, Any], parts: Dict[str, np.ndarray],
                  dtype: np.dtype, rows: int) -> np.ndarray:
    """Decode any known encoding back to the logical array."""
    encoding = meta.get("encoding", RAW)
    if encoding == RAW:
        return parts["raw"].astype(dtype, copy=False)
    if encoding == DICT:
        out = dict_decode(parts, meta, dtype)
    elif encoding == DELTA:
        out = delta_decode(parts, meta, dtype, rows)
    else:
        raise EncodingError(f"unknown encoding {encoding!r}")
    if out.size != rows:
        raise EncodingError(
            f"decoded {out.size} rows for {encoding} column, expected {rows}")
    return out

"""HyperLogLog distinct counting for flow attributes.

The EDU dataset alone holds 5.2 B flows (§2); distinct-IP statistics
(Fig 8's "order of households" proxy) over traces of that size cannot
keep exact sets per time bin.  This is a standard HyperLogLog
(Flajolet et al.) over 64-bit hashes with the usual small-range
correction, tuned for 32-bit address spaces.

Accuracy: the relative standard error is ~1.04/sqrt(2^p); the default
``p=12`` (4096 registers, 4 KiB) gives ~1.6%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence, Tuple, Union

import numpy as np

_HASH_BITS = 64


def _hash64(values: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic 64-bit mix of 32/64-bit integer values.

    Uses the splitmix64 finalizer — fast, vectorizable, and well
    distributed; a keyed cryptographic hash is unnecessary here because
    HLL inputs are not adversarial in this pipeline.
    """
    x = values.astype(np.uint64) + np.uint64(
        0x9E3779B97F4A7C15 * (salt + 1) & 0xFFFFFFFFFFFFFFFF
    )
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _check_precision(p: int) -> None:
    if not 4 <= p <= 18:
        raise ValueError(f"precision must be in [4, 18], got {p}")


def relative_error(p: int) -> float:
    """The theoretical relative standard error at precision ``p``."""
    _check_precision(p)
    return float(1.04 / np.sqrt(1 << p))


def register_ranks(
    values: np.ndarray, p: int, salt: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The rank kernel: per value, its register index and rank.

    The top ``p`` bits of the 64-bit hash pick the register; the rank
    is the position of the leftmost 1 bit in the remaining ``64 - p``
    bits, with an all-zero remainder mapping to the maximum rank
    ``65 - p``.  The leading-zero count comes from ``frexp`` of each
    32-bit half, which float64 holds exactly.  Returns ``(registers
    int64, ranks uint8)``.
    """
    hashed = _hash64(np.asarray(values), salt)
    registers = (hashed >> np.uint64(_HASH_BITS - p)).astype(np.int64)
    remainder = hashed << np.uint64(p)
    _, high_bits = np.frexp(
        (remainder >> np.uint64(32)).astype(np.float64)
    )
    _, low_bits = np.frexp(
        (remainder & np.uint64(0xFFFFFFFF)).astype(np.float64)
    )
    # frexp's exponent is the bit length (zero for zero).
    leading_zeros = np.where(high_bits > 0, 32 - high_bits, 64 - low_bits)
    ranks = np.minimum(leading_zeros + 1, _HASH_BITS - p + 1)
    return registers, ranks.astype(np.uint8)


def estimate(rank_counts: np.ndarray) -> np.ndarray:
    """Cardinality estimates from per-sketch rank histograms.

    ``rank_counts[g, r]`` is how many of sketch ``g``'s ``m`` registers
    hold rank ``r`` (column 0 counts the zero registers).  Every
    estimate, dense or grouped, goes through this one function, so a
    sketch's count does not depend on how its registers were stored.
    The inverse sum ``sum(2^-register)`` is accumulated per rank, so it
    is independent of register order too.
    """
    if not len(rank_counts):
        return np.zeros(0, dtype=np.float64)
    m = int(rank_counts[0].sum())
    weights = np.exp2(-np.arange(rank_counts.shape[1], dtype=np.float64))
    inverse_sum = (rank_counts * weights).sum(axis=1)
    raw = _alpha(m) * m * m / inverse_sum
    zeros = rank_counts[:, 0]
    # Small-range correction (linear counting) where registers are
    # still empty.
    small = (raw <= 2.5 * m) & (zeros > 0)
    linear = m * np.log(m / np.where(small, zeros, 1))
    return np.where(small, linear, raw)


@dataclass(frozen=True, eq=False)
class GroupedRegisters:
    """Sparse HyperLogLog registers for many groups at once.

    One sketch per group, stored as the registers that are set: each
    entry packs a ``(group id, register, rank)`` triple into one int64,
    ``group << (p + 6) | register << 6 | rank``.  Entries are sorted and
    hold one (the maximum) rank per ``(group, register)``, so a group's
    entries are exactly its dense sketch's non-zero registers.  A group
    with few distinct values costs a few entries instead of ``2^p``
    bytes.

    Build with :meth:`from_values` (one rank pass over a whole column,
    then one sort); union with :meth:`merge`; estimate every group in
    one vectorised call with :meth:`counts`.
    """

    p: int
    salt: int
    entries: np.ndarray

    #: Bits holding the rank (ranks never exceed ``65 - 4 = 61``).
    RANK_BITS: ClassVar[int] = 6

    @classmethod
    def from_values(
        cls, values: np.ndarray, group_ids: np.ndarray, p: int = 12,
        salt: int = 0,
    ) -> "GroupedRegisters":
        """Sketch ``values[i]`` into group ``group_ids[i]``, for all i."""
        _check_precision(p)
        registers, ranks = register_ranks(values, p, salt)
        shift = np.int64(p + cls.RANK_BITS)
        entries = (
            (np.asarray(group_ids, dtype=np.int64) << shift)
            | (registers << np.int64(cls.RANK_BITS))
            | ranks.astype(np.int64)
        )
        return cls(p, salt, cls._max_rank(entries))

    @classmethod
    def _max_rank(cls, entries: np.ndarray) -> np.ndarray:
        """Keep the largest rank of each (group, register) (sorted)."""
        entries = np.sort(entries)
        if entries.size < 2:
            return entries
        slots = entries >> np.int64(cls.RANK_BITS)
        last = np.empty(entries.size, dtype=bool)
        np.not_equal(slots[1:], slots[:-1], out=last[:-1])
        last[-1] = True
        return entries[last]

    @property
    def groups(self) -> np.ndarray:
        """Group id of each entry."""
        return self.entries >> np.int64(self.p + self.RANK_BITS)

    @property
    def registers(self) -> np.ndarray:
        """Register index of each entry."""
        return (self.entries >> np.int64(self.RANK_BITS)) & np.int64(
            (1 << self.p) - 1
        )

    @property
    def ranks(self) -> np.ndarray:
        """Rank of each entry."""
        return (self.entries & np.int64((1 << self.RANK_BITS) - 1)).astype(
            np.uint8
        )

    @classmethod
    def merge(
        cls,
        parts: Sequence["GroupedRegisters"],
        group_maps: Sequence[np.ndarray],
    ) -> "GroupedRegisters":
        """Union register sets whose group ids are renumbered.

        ``group_maps[i][g]`` is the merged group id of group ``g`` of
        ``parts[i]``; registers of one merged group take the maximum
        rank, exactly like a dense sketch union.
        """
        first = parts[0]
        for part in parts[1:]:
            _check_same(first.p, first.salt, part.p, part.salt)
        shift = np.int64(first.p + cls.RANK_BITS)
        low = np.int64((1 << (first.p + cls.RANK_BITS)) - 1)
        renumbered = [
            (np.asarray(mapping, dtype=np.int64)[part.groups] << shift)
            | (part.entries & low)
            for part, mapping in zip(parts, group_maps)
        ]
        return cls(
            first.p, first.salt, cls._max_rank(np.concatenate(renumbered))
        )

    def counts(self, n_groups: int) -> np.ndarray:
        """Estimated distinct values of groups ``0 .. n_groups-1``."""
        width = _HASH_BITS - self.p + 2
        rank_counts = np.bincount(
            self.groups * width + self.ranks,
            minlength=n_groups * width,
        ).reshape(n_groups, width)
        # Registers with no entry hold rank zero.
        rank_counts[:, 0] = (1 << self.p) - rank_counts.sum(axis=1)
        return estimate(rank_counts)


def _check_same(p: int, salt: int, other_p: int, other_salt: int) -> None:
    """Raise unless two sketches share precision and salt.

    Mismatched precisions mean different register counts; taking an
    elementwise maximum would silently misalign registers and produce
    a garbage estimate, so both mismatches are an explicit error.
    """
    if other_p != p:
        raise ValueError(
            f"cannot merge HyperLogLog sketches with different "
            f"precisions (p={p} vs p={other_p}); registers "
            f"would misalign"
        )
    if other_salt != salt:
        raise ValueError(
            f"cannot merge HyperLogLog sketches with different "
            f"hash salts ({salt} vs {other_salt})"
        )


class HyperLogLog:
    """A mergeable distinct counter."""

    __slots__ = ("_p", "_salt", "_registers")

    def __init__(self, p: int = 12, salt: int = 0):
        _check_precision(p)
        self._p = p
        self._salt = salt
        self._registers = np.zeros(1 << p, dtype=np.uint8)

    @property
    def precision(self) -> int:
        """The register-count exponent ``p``."""
        return self._p

    @property
    def memory_bytes(self) -> int:
        """Register memory footprint."""
        return self._registers.nbytes

    def add(self, value: int) -> None:
        """Add one integer value."""
        self.add_many(np.asarray([value], dtype=np.uint64))

    def add_many(self, values: Union[np.ndarray, Iterable[int]]) -> None:
        """Add a batch of integer values (vectorized)."""
        array = np.asarray(list(values) if not isinstance(
            values, np.ndarray) else values, dtype=np.uint64)
        if array.size == 0:
            return
        indices, ranks = register_ranks(array, self._p, self._salt)
        np.maximum.at(self._registers, indices, ranks)

    def count(self) -> float:
        """Estimate the number of distinct values added."""
        rank_counts = np.bincount(
            self._registers, minlength=_HASH_BITS - self._p + 2
        )
        return float(estimate(rank_counts[np.newaxis, :])[0])

    def _check_mergeable(self, other: "HyperLogLog") -> None:
        """Raise unless ``other`` shares this sketch's parameters."""
        _check_same(self._p, self._salt, other._p, other._salt)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Union with another sketch (same precision and salt)."""
        self._check_mergeable(other)
        merged = HyperLogLog(self._p, self._salt)
        merged._registers = np.maximum(self._registers, other._registers)
        return merged

    def union_update(self, other: "HyperLogLog") -> None:
        """In-place union — the allocation-free form of :meth:`merge`."""
        self._check_mergeable(other)
        np.maximum(self._registers, other._registers, out=self._registers)

    def relative_error(self) -> float:
        """The theoretical relative standard error of the sketch."""
        return relative_error(self._p)

"""Generic splitting types of sheaves on projective space.

The restriction of a rank-r torsion-free sheaf to a generic line splits as
a direct sum of line bundles O(b_1) + ... + O(b_r) with
b_1 >= b_2 >= ... >= b_r; the tuple (b_1, ..., b_r) is the splitting type.
Two numeric constraints make the set of candidate types finite for a
mu-semistable reflexive sheaf on P^3:

* magnitude: |b_i| <= |c_1|/r + r for every i, and
* gap: consecutive entries differ by at most 2.

This module represents splitting types, checks the two constraints, and
enumerates every candidate inside the magnitude box.  The enumeration
prunes the gap constraint while it generates the tuples, so it never
builds a tuple it would then discard.  The gap constraint is a flag
because the magnitude bound holds for all mu-semistable reflexive sheaves
while the gap bound is specific to reflexive sheaves on P^3.

Enumeration is memoized per process: the types of each (r, c1, gap flag)
are built once and kept while the cache holds at most ``_CACHE_TYPES``
types in all, the least recently used enumeration leaving first.  An
enumeration larger than that is built on every call and never kept.
Every call returns a new list, so a caller that changes it changes no
later result; errors are not cached.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Iterator, Sequence

from .errors import InadmissibleParameterError

IntSequence = Sequence[int]

# the most splitting types the enumeration cache keeps, over all arguments
_CACHE_TYPES = 20_000


@dataclass(frozen=True)
class SplittingType:
    """A non-increasing tuple of generic-line restriction degrees.

    Construction canonicalizes: entries are sorted non-increasing, so equal
    multisets give equal (and hash-equal) types.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise InadmissibleParameterError("a splitting type needs rank >= 1")
        if any(not isinstance(b, int) or isinstance(b, bool) for b in self.entries):
            raise InadmissibleParameterError("splitting type entries must be integers")
        object.__setattr__(self, "entries", tuple(sorted(self.entries, reverse=True)))

    @classmethod
    def of(cls, *entries: int) -> "SplittingType":
        return cls(tuple(entries))

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def c1(self) -> int:
        """First Chern class of O(b): the sum of the entries."""
        return sum(self.entries)

    @property
    def b_max(self) -> int:
        return self.entries[0]

    @property
    def b_min(self) -> int:
        return self.entries[-1]

    @property
    def square_sum(self) -> int:
        """Sum of the squared entries; feeds the h^1 bound downstream."""
        return sum(b * b for b in self.entries)

    def twisted(self, k: int) -> "SplittingType":
        """Splitting type of F(k): every entry shifted by k."""
        return SplittingType(tuple(b + k for b in self.entries))

    def dual(self) -> "SplittingType":
        """Splitting type of the dual sheaf: entries negated (and re-sorted)."""
        return SplittingType(tuple(-b for b in self.entries))

    def __str__(self) -> str:
        return "(" + ",".join(str(b) for b in self.entries) + ")"


def _entries(b: "SplittingType | IntSequence") -> tuple[int, ...]:
    if isinstance(b, SplittingType):
        return b.entries
    return tuple(b)


def validate(b: "SplittingType | IntSequence", r: int, c1: int) -> bool:
    """True iff b has length r, sums to c1, and is non-increasing.

    Accepts raw integer sequences so that mis-ordered input can be reported
    as False rather than being silently canonicalized.
    """
    entries = _entries(b)
    if len(entries) != r or sum(entries) != c1:
        return False
    return all(entries[i] >= entries[i + 1] for i in range(len(entries) - 1))


def splitting_radius(r: int, c1: int) -> Fraction:
    """The magnitude bound |c_1|/r + r, as an exact rational."""
    if r <= 0:
        raise InadmissibleParameterError(f"rank must be positive, got {r}")
    return Fraction(abs(c1), r) + r


def magnitude_ok(b: "SplittingType | IntSequence", r: int, c1: int) -> bool:
    """True iff every |b_i| <= |c1|/r + r, compared exactly.

    Requires `validate(b, r, c1)` to hold.
    """
    if not validate(b, r, c1):
        raise InadmissibleParameterError(
            f"{tuple(_entries(b))} is not a valid splitting type for rank {r}, c1 {c1}"
        )
    bound = splitting_radius(r, c1)
    return all(abs(entry) <= bound for entry in _entries(b))


def _descending_tuples(
    slots: int, total: int, hi: int, lo: int, floor_: int, gap: int
) -> Iterator[tuple[int, ...]]:
    """Non-increasing integer tuples of given length and sum, entries in [lo, hi].

    The first entry is at least ``floor_`` and each later entry at least its
    predecessor minus ``gap``.  Yielded in lexicographically descending
    order.  Every first entry tried extends to at least one tuple: the sums
    a valid tail can reach form an interval (raising the last entry that
    sits below its predecessor by 1 keeps every constraint), so bounding
    the tail's least and greatest sums is exact.
    """
    if slots == 1:
        yield (total,)
        return
    rest = slots - 1
    upper = min(hi, total - rest * lo)
    lower = max(floor_, -(-total // slots))  # first entry is the max, so >= mean
    # the least tail after `upper` is upper - gap, upper - 2 gap, ...,
    # clamped at lo; lower `upper` until it and that tail fit in the total
    while upper >= lower:
        steps = min(rest, (upper - lo) // gap)
        least = steps * upper - gap * steps * (steps + 1) // 2 + (rest - steps) * lo
        if upper + least <= total:
            break
        upper -= 1
    for first in range(upper, lower - 1, -1):
        tail_floor = max(lo, first - gap)
        for tail in _descending_tuples(rest, total - first, first, lo, tail_floor, gap):
            yield (first, *tail)


def enumerate_splitting_types(
    r: int, c1: int, reflexive_gap: bool = True
) -> list[SplittingType]:
    """All splitting types of rank r and first Chern class c1 inside the box.

    Every returned type satisfies |b_i| <= |c1|/r + r; with `reflexive_gap`
    the gap <= 2 constraint is applied too, while the tuples are generated,
    so no tuple that violates it is ever built.  The result is finite, free
    of duplicates, and sorted lexicographically descending.  The types are
    built once per process for each argument triple; the list is new on
    every call.
    """
    # typed: a float rank raises, so it must not find an int rank's entry
    key = (r, c1, reflexive_gap, type(r), type(c1), type(reflexive_gap))
    types = _cache.get(key)
    if types is None:  # an error raised here leaves nothing cached
        types = _cache.keep(key, _build_types(r, c1, reflexive_gap))
    return list(types)


def _build_types(r: int, c1: int, reflexive_gap: bool) -> tuple[SplittingType, ...]:
    hi = floor(splitting_radius(r, c1))
    gap = 2 if reflexive_gap else 2 * hi  # the box width constrains nothing
    return tuple(
        SplittingType(entries) for entries in _descending_tuples(r, c1, hi, -hi, -hi, gap)
    )


class _TypeCache:
    """Enumerations by argument key, holding at most ``limit`` types in all.

    The least recently used enumeration is evicted first; one larger than
    ``limit`` is returned without being kept.  ``count`` is the number of
    types held.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.count = 0
        self._kept: OrderedDict[tuple, tuple[SplittingType, ...]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> tuple[SplittingType, ...] | None:
        """The kept types of ``key``, now the most recently used, or None.

        Takes no lock: each of the two dict calls is atomic, and the types
        found stay valid when ``keep`` evicts them in between.
        """
        types = self._kept.get(key)
        if types is not None:
            try:
                self._kept.move_to_end(key)
            except KeyError:  # evicted by another thread since the lookup
                pass
        return types

    def keep(self, key: tuple, types: tuple[SplittingType, ...]) -> tuple[SplittingType, ...]:
        """Keep ``types`` under ``key`` if they fit, evicting as needed; returns them."""
        if len(types) <= self.limit:
            with self._lock:
                if key not in self._kept:
                    self._kept[key] = types
                    self.count += len(types)
                    while self.count > self.limit:
                        self.count -= len(self._kept.popitem(last=False)[1])
        return types


_cache = _TypeCache(_CACHE_TYPES)

"""Generic splitting types of sheaves on projective space.

The restriction of a rank-r torsion-free sheaf to a generic line splits as
a direct sum of line bundles O(b_1) + ... + O(b_r) with
b_1 >= b_2 >= ... >= b_r; the tuple (b_1, ..., b_r) is the splitting type.
Two numeric constraints make the set of candidate types finite for a
mu-semistable reflexive sheaf on P^3:

* magnitude: |b_i| <= |c_1|/r + r for every i, and
* gap: consecutive entries differ by at most 2.

This module represents splitting types, computes the magnitude bound,
and enumerates every candidate inside the magnitude box.  The enumeration
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
from fractions import Fraction
from math import floor
from typing import Iterator

from .errors import InadmissibleParameterError, Value, check_integer

# the most splitting types the enumeration cache keeps, over all arguments
_CACHE_TYPES = 20_000


class SplittingType(Value):
    """A non-increasing tuple of generic-line restriction degrees.

    Construction canonicalizes: entries are sorted non-increasing, so equal
    multisets give equal (and hash-equal) types.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        try:
            given = tuple(entries)
        except TypeError:  # not iterable
            raise InadmissibleParameterError(
                f"splitting type {entries!r} must be a sequence of integers"
            ) from None
        if len(given) == 0:
            raise InadmissibleParameterError("a splitting type needs rank >= 1")
        if any(not isinstance(b, int) or isinstance(b, bool) for b in given):
            raise InadmissibleParameterError("splitting type entries must be integers")
        self._store(tuple(sorted(given, reverse=True)))

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
    def square_sum(self) -> int:
        """Sum of the squared entries; feeds the h^1 bound downstream."""
        return sum(b * b for b in self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(b) for b in self.entries) + ")"


def splitting_radius(r: int, c1: int) -> Fraction:
    """The magnitude bound |c_1|/r + r, as an exact rational."""
    check_integer("rank", r)
    check_integer("c_1", c1)
    if r <= 0:
        raise InadmissibleParameterError(f"rank must be positive, got {r}")
    return Fraction(abs(c1), r) + r


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
    every call.  r and c1 must be ints (a bool or a float is an
    :class:`IntegralityError`), checked before the cache is read, so an
    int's entry never answers for a value equal to it.
    """
    check_integer("rank", r)
    check_integer("c_1", c1)
    key = (r, c1, reflexive_gap)
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

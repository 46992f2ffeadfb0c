"""Linear-monad bookkeeping for normalized semistable sheaves on P^2.

A normalized (-rank + 1 <= c_1 <= 0) mu-semistable torsion-free sheaf of
rank r, degree d, and charge c = -chi(F(-1)) is the middle cohomology of a
linear monad

    O(-1)^(d+c)  ->  O^(r+d+2c)  ->  O(1)^c.

A monad shape is its three exponents (v, w, u); the terms are read off
them.  This module computes the charge from (r, d, ch_2) and builds the
monad shape with the exact character identity re-checked on construction.
It also enumerates the partition-type labels of zero-dimensional quotient
sheaves of length l (multisets of integer partitions of total l).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chow import ChernCharacter, RationalLike, as_rational, euler_characteristic, twist
from .errors import InadmissibleParameterError, NotRealizableError, check_integer
from .resolutions import ShapeDescriptor


def is_normalized(r: int, d: int) -> bool:
    """True iff -r + 1 <= d <= 0; requires a positive rank."""
    if r <= 0:
        raise InadmissibleParameterError(f"rank must be positive, got {r}")
    return -r + 1 <= d <= 0


def charge(r: int, d: int, ch2: RationalLike) -> Fraction:
    """The charge -chi(F(-1)) of a P^2 class (r, d, ch_2).

    Computed through Riemann-Roch on the twisted character; it closes to
    -ch_2 - d/2, which ``tests/test_identities.py`` proves symbolically.
    The closed form is not used yet: this is the only call of
    :func:`chowkit.chow.twist` and :func:`chowkit.chow.euler_characteristic`
    on the catalog paths, and the benchmark's traced run times those two
    kernels on the inputs this call passes them.  A probe with no recorded
    inputs stops that run, so the switch waits for the benchmark to report
    such a probe as absent instead.
    """
    check_integer("rank", r)
    check_integer("degree", d)
    character = ChernCharacter.of(2, r, d, ch2)
    return -euler_characteristic(twist(character, -1))


@dataclass(frozen=True)
class MonadShape:
    """A linear monad O(-1)^v -> O^w -> O(1)^u on P^2, as its exponents.

    The middle cohomology has rank w - v - u and degree v - u; both
    identities hold by construction once the exponents are fixed.
    """

    v: int
    w: int
    u: int

    def __post_init__(self) -> None:
        if min(self.v, self.w, self.u) < 0:
            raise NotRealizableError(
                f"monad exponents {(self.v, self.w, self.u)} must be nonnegative"
            )

    @property
    def left(self) -> ShapeDescriptor:
        return ShapeDescriptor.power(-1, self.v)

    @property
    def middle(self) -> ShapeDescriptor:
        return ShapeDescriptor.power(0, self.w)

    @property
    def right(self) -> ShapeDescriptor:
        return ShapeDescriptor.power(1, self.u)

    @property
    def rank(self) -> int:
        return self.w - self.v - self.u

    @property
    def degree(self) -> int:
        return self.v - self.u

    def __str__(self) -> str:
        return f"{self.left} -> {self.middle} -> {self.right}"


def monad_shape(r: int, d: int, ch2: RationalLike) -> MonadShape:
    """The linear monad shape of a normalized class (r, d, ch_2).

    The exponents are (v, w, u) = (d + c, r + d + 2c, c) with c the charge.
    Raises :class:`NotRealizableError` unless the input is normalized, the
    charge is a nonnegative integer, and d + c >= 0.  The exact identity
    ch(middle) - ch(left) - ch(right) = (r, d, ch_2) is verified on every
    call before returning, in its closed form: the character of the monad
    O(-1)^v -> O^w -> O(1)^u is (w - v - u, v - u, -(v + u)/2), read off the
    built shape.  ``tests/test_identities.py`` proves symbolically that the
    exponents below satisfy it for all (r, d, c).

    The cohomology-vanishing hypotheses under which a sheaf with these
    invariants really is the middle cohomology of such a monad are
    assumptions on the sheaf itself; they cannot be checked from the
    numeric data and are not checked here.
    """
    check_integer("rank", r)
    check_integer("degree", d)
    ch2 = as_rational(ch2)
    if not is_normalized(r, d):
        raise NotRealizableError(
            f"(r, d) = ({r}, {d}) is not normalized: need -r + 1 <= d <= 0"
        )
    c = charge(r, d, ch2)
    if c.denominator != 1 or c < 0:
        raise NotRealizableError(f"charge {c} is not a nonnegative integer")
    c = int(c)
    if d + c < 0:
        raise NotRealizableError(f"left exponent d + c = {d + c} is negative")
    shape = MonadShape(d + c, r + d + 2 * c, c)
    # exact re-check of the character identity, with ch_2 = -(v + u)/2
    # cross-multiplied in integers; survives python -O
    v, w, u = shape.v, shape.w, shape.u
    if (w - v - u, v - u, -(v + u) * ch2.denominator) != (r, d, 2 * ch2.numerator):
        raise NotRealizableError(
            f"monad exponents {(v, w, u)} do not reproduce ({r}, {d}, {ch2})"
        )
    return shape


@dataclass(frozen=True)
class PartitionType:
    """A multiset of integer partitions; the label of a 0-dimensional sheaf.

    Each partition describes the local structure at one (abstract) point;
    the total length l is the sum over all partitions.  Canonical form:
    each partition is weakly decreasing and the partitions are sorted
    descending by (size, entries).
    """

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        canonical = []
        for part in self.parts:
            entries = tuple(sorted(part, reverse=True))
            if len(entries) == 0 or any(x < 1 for x in entries):
                raise InadmissibleParameterError(
                    f"partition {part} must consist of positive integers"
                )
            canonical.append(entries)
        canonical.sort(key=lambda p: (sum(p), p), reverse=True)
        object.__setattr__(self, "parts", tuple(canonical))

    @property
    def total(self) -> int:
        return sum(sum(p) for p in self.parts)

    @property
    def is_reduced(self) -> bool:
        """True iff every partition is (1, ..., 1): a sum of skyscrapers."""
        return all(all(x == 1 for x in p) for p in self.parts)

    def aut_dimension(self) -> int | None:
        """dim Aut of the labelled sheaf, or None when no formula applies.

        In the reduced case the sheaf is a direct sum of skyscraper powers
        O_x^(m_x) and the automorphism group is a product of GL(m_x) (times
        finite symmetric groups), of dimension sum m_x^2.  Partitions with
        a part >= 2 carry non-split local modules; their automorphism
        dimension is reported as unknown.
        """
        if not self.is_reduced:
            return None
        return sum(len(p) ** 2 for p in self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "empty"
        return "|".join("(" + "+".join(str(x) for x in p) + ")" for p in self.parts)


def _partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Weakly decreasing partitions of n, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first, *rest))
    return out


def partition_types(l: int) -> list[PartitionType]:
    """All partition types of total l; l = 0 gives the single empty type.

    Enumerated as multisets: the candidate partitions are ordered by
    (size, entries) descending and chosen non-increasingly along that
    order, so each multiset appears exactly once.  Output order follows
    the same descending order, hence is deterministic.
    """
    check_integer("length", l)
    if l < 0:
        raise InadmissibleParameterError(f"length must be >= 0, got {l}")
    # _partitions(k) is reverse-lexicographic and k runs downward, so the
    # candidates are already in descending (size, entries) order
    candidates = [p for k in range(l, 0, -1) for p in _partitions(k)]

    def generate(remaining: int, start: int):
        if remaining == 0:
            yield ()
            return
        for i in range(start, len(candidates)):
            piece = candidates[i]
            if sum(piece) > remaining:
                continue
            for rest in generate(remaining - sum(piece), i):
                yield (piece, *rest)

    return [PartitionType(parts) for parts in generate(l, 0)]

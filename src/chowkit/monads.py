"""Linear-monad bookkeeping for normalized semistable sheaves on P^2.

A normalized (-rank + 1 <= c_1 <= 0) mu-semistable torsion-free sheaf of
rank r, degree d, and charge c = -chi(F(-1)) is the middle cohomology of a
linear monad

    O(-1)^(d+c)  ->  O^(r+d+2c)  ->  O(1)^c.

A monad shape is its three exponents (v, w, u); the terms are read off
them.  This module computes the charge from (r, d, ch_2), builds the monad
shape with the exact character identity re-checked on construction,
dualizes it, and handles the c + d = 0 case where the sheaf is the kernel
of a surjection O^(r+c) -> O(1)^c.  It also enumerates the partition-type
labels of zero-dimensional quotient sheaves of length l (multisets of
integer partitions of total l) and reports the group and Hom dimensions
attached to a stratum label.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chow import ChernCharacter, RationalLike, as_rational, euler_characteristic, sub, twist
from .errors import InadmissibleParameterError, NotRealizableError
from .resolutions import ShapeDescriptor, hom_dim


def is_normalized(r: int, d: int) -> bool:
    """True iff -r + 1 <= d <= 0; requires a positive rank."""
    if r <= 0:
        raise InadmissibleParameterError(f"rank must be positive, got {r}")
    return -r + 1 <= d <= 0


def charge(r: int, d: int, ch2: RationalLike) -> Fraction:
    """The charge -chi(F(-1)) of a P^2 class (r, d, ch_2).

    Computed through Riemann-Roch on the twisted character; it closes to
    -ch_2 - d/2, which ``tests/test_identities.py`` proves symbolically.
    """
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

    def chern_character(self) -> ChernCharacter:
        """Character of the middle cohomology: ch(middle) - ch(left) - ch(right)."""
        middle = self.middle.chern_character(2)
        outer = sub(middle, self.left.chern_character(2))
        return sub(outer, self.right.chern_character(2))

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
    # exact re-check of the character identity; survives python -O
    v, w, u = shape.v, shape.w, shape.u
    if (w - v - u, v - u, Fraction(-(v + u), 2)) != (r, d, ch2):
        raise NotRealizableError(
            f"monad exponents {(v, w, u)} do not reproduce ({r}, {d}, {ch2})"
        )
    return shape


def dual_complex_shape(m: MonadShape) -> MonadShape:
    """Shape of the dualized monad: the outer exponents u and v swap."""
    return MonadShape(m.u, m.w, m.v)


@dataclass(frozen=True)
class KernelPresentation:
    """The c + d = 0 presentation: F = ker(O^(r+c) -> O(1)^c).

    ``surjection_source``/``surjection_target`` describe the defining
    surjection; ``resolution_sub``/``resolution_quot`` the induced
    resolution 0 -> O(-1)^c -> O^(r+c) -> F* -> 0 of the dual sheaf.
    ``hom_dimension`` is dim Hom(O(-1)^c, O^(r+c)) = 3 c (r + c).
    """

    surjection_source: ShapeDescriptor
    surjection_target: ShapeDescriptor
    resolution_sub: ShapeDescriptor
    resolution_quot: ShapeDescriptor
    hom_dimension: int


def kernel_presentation(r: int, c: int) -> KernelPresentation:
    """Presentation data for a rank-r charge-c sheaf with c + d = 0."""
    if r < 1:
        raise InadmissibleParameterError(f"rank must be >= 1, got {r}")
    if c < 0:
        raise InadmissibleParameterError(f"charge must be >= 0, got {c}")
    ambient = ShapeDescriptor.power(0, r + c)
    target = ShapeDescriptor.power(1, c)
    sub_term = ShapeDescriptor.power(-1, c)
    return KernelPresentation(
        surjection_source=ambient,
        surjection_target=target,
        resolution_sub=sub_term,
        resolution_quot=ambient,
        hom_dimension=hom_dim(sub_term, ambient, 2),
    )


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


@dataclass(frozen=True)
class StratumReport:
    """Dimensions attached to a stratum label (r, c, partition type).

    ``hom_dim`` is dim Hom(O^(r+c), Q) = l (r + c) for a length-l quotient
    Q, ``proj_dim`` the dimension of its projectivization (None when
    l = 0), and ``aut_dims`` the dimensions of Aut(O(-1)^c), Aut(O^(r+c)),
    Aut(partition type) -- the last None when no formula is available.
    """

    hom_dim: int
    proj_dim: int | None
    aut_dims: tuple[int, int, int | None]

    @property
    def group_dim(self) -> int | None:
        """Total dimension of the product group, when every factor is known."""
        if self.aut_dims[2] is None:
            return None
        return sum(self.aut_dims)  # type: ignore[arg-type]


def stratum_dims(r: int, c: int, ptype: PartitionType) -> StratumReport:
    """Group and ambient dimensions for the stratum labelled by ptype."""
    if r < 1:
        raise InadmissibleParameterError(f"rank must be >= 1, got {r}")
    if c < 0:
        raise InadmissibleParameterError(f"charge must be >= 0, got {c}")
    l = ptype.total
    ambient = l * (r + c)
    return StratumReport(
        hom_dim=ambient,
        proj_dim=ambient - 1 if l >= 1 else None,
        aut_dims=(c * c, (r + c) * (r + c), ptype.aut_dimension()),
    )

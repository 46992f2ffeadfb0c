"""Two-term resolutions of rank-two reflexive sheaves on P^3.

For rank 2, c_1 = -1 and c_2 > 4, the admissible third Chern classes are

    c_3 = c_2^2 - 2 s c_2 + 2 s (s + 1),    1 <= s,  (2s+1)^2 <= 4 c_2 - 7,

and each admissible pair (c_2, s) has a resolution 0 -> R^-1 -> R^0 -> F -> 0
with fixed split terms

    R^-1 = O(-s-2) + O(s-1-c_2),
    R^0  = O(-s-1) + O(-1) + O(-2) + O(s-c_2).

This module enumerates the admissible parameters in pure integer
arithmetic (the square-root condition is decided via the equivalent
integer inequality, so boundary cases are exact).  For each admissible
pair, :func:`presentation_report` builds the resolution once: c_3, the two
terms, and the ambient dimensions of the presentation P(Hom(R^-1, R^0))
together with Aut(R^-1) x Aut(R^0).  The Quot factor of the presentation
carries no closed dimension formula and is deliberately not reported.
:func:`verify_resolution_chern` checks the Chern-character identity
ch(R^0) - ch(R^-1) = ch(F) on a built resolution, without rebuilding it.

Characters of split terms are computed in closed form: component i of
ch(O(t_1)^e_1 + ...) is (sum e t^i) / i!.  The identity check runs in
integers scaled by 3! = 6: it compares 6 (ch R^0 - ch R^-1) with
6 ch(2, -1, c_2, c_3) = (12, -6, 3 (1 - 2 c_2), 3 c_2 + 3 c_3 - 1), so a
wrong c_3 moves the last entry by a nonzero multiple of 3.  That the
identity holds as a polynomial identity in (c_2, s), and that the scaled
tuples are 6 times the rational characters, is proved symbolically in
``tests/test_identities.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt

from .bounds import h0_line_bundle
from .chow import ChernCharacter
from .errors import InadmissibleParameterError, NotRealizableError


@dataclass(frozen=True)
class ShapeDescriptor:
    """A direct sum of line bundles, as (twist, exponent) pairs.

    Canonical form: twists strictly descending, exponents positive, equal
    twists merged; the empty descriptor is the zero sheaf.
    """

    summands: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        merged: dict[int, int] = {}
        for twist_, exponent in self.summands:
            if exponent < 0:
                raise NotRealizableError(f"negative exponent {exponent} for O({twist_})")
            merged[twist_] = merged.get(twist_, 0) + exponent
        canonical = tuple(
            (t, e) for t, e in sorted(merged.items(), reverse=True) if e > 0
        )
        object.__setattr__(self, "summands", canonical)

    @classmethod
    def line_bundles(cls, *twists: int) -> "ShapeDescriptor":
        """Shape of O(t_1) + ... + O(t_k), one summand per argument."""
        return cls(tuple((t, 1) for t in twists))

    @classmethod
    def power(cls, twist_: int, exponent: int) -> "ShapeDescriptor":
        """Shape of O(twist)^exponent."""
        return cls(((twist_, exponent),))

    @property
    def rank(self) -> int:
        return sum(e for _, e in self.summands)

    def chern_character(self, n: int) -> ChernCharacter:
        """Character on P^n: component i is (sum e t^i) / i!."""
        return ChernCharacter(
            n,
            tuple(
                Fraction(p, factorial(i))
                for i, p in enumerate(_power_sums(self.summands, n))
            ),
        )

    def __add__(self, other: "ShapeDescriptor") -> "ShapeDescriptor":
        if not isinstance(other, ShapeDescriptor):
            return NotImplemented
        return ShapeDescriptor(self.summands + other.summands)

    def __str__(self) -> str:
        if not self.summands:
            return "0"
        parts = []
        for t, e in self.summands:
            bundle = "O" if t == 0 else f"O({t})"
            parts.append(bundle if e == 1 else f"{bundle}^{e}")
        return " + ".join(parts)


def _power_sums(summands, n: int) -> list:
    """(sum e t^0, ..., sum e t^n) over (twist, exponent) pairs."""
    return [sum(e * t**i for t, e in summands) for i in range(n + 1)]


def _scaled_character(summands, n: int) -> tuple:
    """n! times the character of a split sheaf: entry i is (n!/i!) sum e t^i."""
    return tuple(
        factorial(n) // factorial(i) * p
        for i, p in enumerate(_power_sums(summands, n))
    )


def _scaled_target(c2: int, c3: int) -> tuple:
    """6 ch(2, -1, c2, c3) on P^3, an integer tuple."""
    return (12, -6, 3 - 6 * c2, 3 * c2 + 3 * c3 - 1)


def _c3_formula(c2: int, s: int) -> int:
    return c2 * c2 - 2 * s * c2 + 2 * s * (s + 1)


def max_admissible_s(c2: int) -> int:
    """Largest admissible s for c2, or 0 when there is none.

    Decided entirely in integers: s is admissible iff (2s+1)^2 <= 4 c2 - 7
    (equivalent to s <= (-1 + sqrt(4 c2 - 7))/2) and c2 > 4.
    """
    if c2 <= 4:
        return 0
    return (isqrt(4 * c2 - 7) - 1) // 2


def admissible_s(c2: int) -> list[int]:
    """All admissible s for the given c2, ascending; empty when c2 <= 4."""
    return list(range(1, max_admissible_s(c2) + 1))


def _check_admissible(c2: int, s: int) -> None:
    if s < 1 or s > max_admissible_s(c2):
        raise InadmissibleParameterError(
            f"s = {s} is not admissible for c2 = {c2} "
            f"(need c2 > 4 and (2s+1)^2 <= 4 c2 - 7)"
        )


def c3_of(c2: int, s: int) -> int:
    """Third Chern class c_2^2 - 2 s c_2 + 2 s (s + 1) of the (c2, s) sheaf."""
    _check_admissible(c2, s)
    return _c3_formula(c2, s)


def resolution_shapes(c2: int, s: int) -> tuple[ShapeDescriptor, ShapeDescriptor]:
    """The fixed resolution terms (R^-1, R^0) for an admissible (c2, s)."""
    _check_admissible(c2, s)
    r_minus1 = ShapeDescriptor.line_bundles(-s - 2, s - 1 - c2)
    r_0 = ShapeDescriptor.line_bundles(-s - 1, -1, -2, s - c2)
    return r_minus1, r_0


def hom_dim(a: ShapeDescriptor, b: ShapeDescriptor, n: int) -> int:
    """Dimension of Hom(a, b) between split bundles on P^n.

    Hom(O(p)^e, O(q)^f) contributes e * f * h^0 O(q - p).
    """
    return sum(
        ea * eb * h0_line_bundle(n, tb - ta)
        for ta, ea in a.summands
        for tb, eb in b.summands
    )


@dataclass(frozen=True)
class PresentationReport:
    """The resolution 0 -> R^-1 -> R^0 -> F -> 0 of one admissible (c2, s).

    c3 is the sheaf's third Chern class and r_minus1, r0 the fixed terms.
    dim_hom is dim Hom(R^-1, R^0), dim_pv the dimension of its
    projectivization, and dim_g the dimension of Aut(R^-1) x Aut(R^0)
    (each automorphism group is open in the endomorphism space).  The
    Quot factor of the full presentation is symbolic and not included.
    """

    c2: int
    s: int
    c3: int
    r_minus1: ShapeDescriptor
    r0: ShapeDescriptor
    dim_hom: int
    dim_pv: int
    dim_g: int


def presentation_report(c2: int, s: int) -> PresentationReport:
    """The resolution of an admissible (c2, s), its terms built once."""
    r_minus1, r0 = resolution_shapes(c2, s)
    dim = hom_dim(r_minus1, r0, 3)
    dim_g = hom_dim(r_minus1, r_minus1, 3) + hom_dim(r0, r0, 3)
    return PresentationReport(c2, s, _c3_formula(c2, s), r_minus1, r0, dim, dim - 1, dim_g)


def verify_resolution_chern(report: PresentationReport) -> bool:
    """Check ch(R^0) - ch(R^-1) against the character of (2, -1, c2, c3).

    Both sides are compared exactly as integer tuples scaled by 3! = 6
    (see the module docstring).  It holds for every built report, and fails
    for one with a perturbed c3 (``dataclasses.replace(report, c3=...)``).
    """
    resolved = tuple(
        a - b
        for a, b in zip(
            _scaled_character(report.r0.summands, 3),
            _scaled_character(report.r_minus1.summands, 3),
        )
    )
    return resolved == _scaled_target(report.c2, report.c3)

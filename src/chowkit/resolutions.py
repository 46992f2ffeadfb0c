"""Two-term resolutions of rank-two reflexive sheaves on P^3.

For rank 2, c_1 = -1 and c_2 > 4, the admissible third Chern classes are

    c_3 = c_2^2 - 2 s c_2 + 2 s (s + 1),    1 <= s,  (2s+1)^2 <= 4 c_2 - 7,

and each admissible pair (c_2, s) has a resolution 0 -> R^-1 -> R^0 -> F -> 0
with fixed split terms

    R^-1 = O(-s-2) + O(s-1-c_2),
    R^0  = O(-s-1) + O(-1) + O(-2) + O(s-c_2).

A term is its (twist, exponent) pairs, twists strictly descending, written
straight from these closed forms; at s = 1 the summands O(-s-1) and O(-2)
merge into O(-2)^2.  The order holds on the whole admissible region, where
c_2 >= s^2 + s + 2 > 2s + 1 (``tests/test_identities.py`` proves it).
:func:`format_term` writes a term as text.

This module enumerates the admissible parameters in pure integer
arithmetic (the square-root condition is decided via the equivalent
integer inequality, so boundary cases are exact).  For each admissible
pair, :func:`presentation_report` builds the resolution once: c_3, the two
terms, and the ambient dimensions of the presentation P(Hom(R^-1, R^0))
together with Aut(R^-1) x Aut(R^0).  The Quot factor of the presentation
carries no closed dimension formula and is deliberately not reported.
:func:`verify_resolution_chern` checks the Chern-character identity
ch(R^0) - ch(R^-1) = ch(F) on a built resolution, without rebuilding it.

Both dimensions are closed-form cubics in (c_2, s), evaluated in integers
over 6.  On the admissible region every twist difference in
Hom(R^-1, R^0), End R^-1 and End R^0 has a fixed sign, so each h^0 is
either the cubic binomial C(t + 3, 3) or 0; the one exception is the
difference 1 - s in End R^0, which adds h^0(O) = 1 at s = 1 only.
``tests/test_identities.py`` proves the sign conditions and both cubics.

The character of a split term is kept only scaled by 3! = 6, as an
integer tuple: entry i of 6 ch(O(t_1)^e_1 + ...) is (6 / i!) sum e t^i.
The identity check compares 6 (ch R^0 - ch R^-1) with
6 ch(2, -1, c_2, c_3) = (12, -6, 3 (1 - 2 c_2), 3 c_2 + 3 c_3 - 1), so a
wrong c_3 moves the last entry by a nonzero multiple of 3.  That the
identity holds as a polynomial identity in (c_2, s), and that the scaled
tuples are 6 times the rational characters, is proved symbolically in
``tests/test_identities.py``.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .chow import _FACTORIAL_SCALES
from .errors import InadmissibleParameterError, check_integer


# a split term: (twist, exponent) pairs, twists strictly descending
Term = tuple[tuple[int, int], ...]


def format_term(term: Term) -> str:
    """The text of a split term, "O(-1) + O(-2)^2 + O(-4)", or "0" when it is empty."""
    if not term:
        return "0"
    return " + ".join(
        ("O" if t == 0 else f"O({t})") + ("" if e == 1 else f"^{e}") for t, e in term
    )


def _scaled_character(summands, n: int) -> tuple:
    """n! times the character of a split sheaf: entry i is (n!/i!) sum e t^i."""
    sums = [0] * (n + 1)
    for t, e in summands:
        term = e  # e t^i
        for i in range(n + 1):
            sums[i] += term
            term *= t
    return tuple(scale * x for scale, x in zip(_FACTORIAL_SCALES[n], sums))


def _scaled_target(c2: int, c3: int) -> tuple:
    """6 ch(2, -1, c2, c3) on P^3, an integer tuple."""
    return (12, -6, 3 - 6 * c2, 3 * c2 + 3 * c3 - 1)


def _c3_formula(c2: int, s: int) -> int:
    return c2 * c2 - 2 * s * c2 + 2 * s * (s + 1)


def _scaled_dims(c2: int, s: int) -> tuple[int, int]:
    """6 dim Hom(R^-1, R^0), and 6 (dim End R^-1 + dim End R^0) less its [s = 1] term.

    Each is a sum of binomials C(t + 3, 3), so both are divisible by 6.
    """
    hom = (
        3 * c2**3 - 12 * c2**2 * s + 15 * c2**2 + 18 * c2 * s**2 - 42 * c2 * s
        + 24 * c2 - 8 * s**3 + 48 * s**2 + 2 * s + 90
    )
    end = (
        4 * c2**3 - 18 * c2**2 * s + 9 * c2**2 + 30 * c2 * s**2 - 30 * c2 * s
        + 5 * c2 - 16 * s**3 + 36 * s**2 + 4 * s + 66
    )
    return hom, end


def max_admissible_s(c2: int) -> int:
    """Largest admissible s for c2, or 0 when there is none.

    Decided entirely in integers: s is admissible iff (2s+1)^2 <= 4 c2 - 7
    (equivalent to s <= (-1 + sqrt(4 c2 - 7))/2) and c2 > 4.
    """
    check_integer("c2", c2)
    if c2 <= 4:
        return 0
    return (isqrt(4 * c2 - 7) - 1) // 2


def admissible_s(c2: int) -> list[int]:
    """All admissible s for the given c2, ascending; empty when c2 <= 4."""
    return list(range(1, max_admissible_s(c2) + 1))


def _check_admissible(c2: int, s: int) -> None:
    check_integer("s", s)
    s_max = max_admissible_s(c2)  # checks c2 first
    if s < 1 or s > s_max:
        raise InadmissibleParameterError(
            f"s = {s} is not admissible for c2 = {c2} "
            f"(need c2 > 4 and (2s+1)^2 <= 4 c2 - 7)"
        )


def resolution_shapes(c2: int, s: int) -> tuple[Term, Term]:
    """The fixed resolution terms (R^-1, R^0) for an admissible (c2, s)."""
    _check_admissible(c2, s)
    r_minus1 = ((-s - 2, 1), (s - 1 - c2, 1))
    if s == 1:  # O(-s-1) = O(-2)
        return r_minus1, ((-1, 1), (-2, 2), (1 - c2, 1))
    return r_minus1, ((-1, 1), (-2, 1), (-s - 1, 1), (s - c2, 1))


class PresentationReport(NamedTuple):
    """The resolution 0 -> R^-1 -> R^0 -> F -> 0 of one admissible (c2, s).

    c3 is the sheaf's third Chern class and r_minus1, r0 the fixed terms.
    dim_hom is dim Hom(R^-1, R^0), dim_pv the dimension of its
    projectivization, and dim_g the dimension of Aut(R^-1) x Aut(R^0)
    (each automorphism group is open in the endomorphism space).  The
    Quot factor of the full presentation is symbolic and not included.

    dim_g is the dimension of that group and nothing more: it is not a
    correction to subtract from dim_hom to get the stratum's dimension
    (dim_hom - dim_g is already negative at (c2, s) = (12, 1)).  Both
    dimensions are closed-form cubics in (c2, s), proved in
    ``tests/test_identities.py``.
    """

    c2: int
    s: int
    c3: int
    r_minus1: Term
    r0: Term
    dim_hom: int
    dim_pv: int
    dim_g: int


def presentation_report(c2: int, s: int) -> PresentationReport:
    """The resolution of an admissible (c2, s), its terms built once."""
    r_minus1, r0 = resolution_shapes(c2, s)
    hom, end = _scaled_dims(c2, s)
    dim = hom // 6
    # End R^0 holds Hom(O(-2), O(-s-1)), nonzero only at s = 1
    dim_g = end // 6 + (1 if s == 1 else 0)
    return PresentationReport(c2, s, _c3_formula(c2, s), r_minus1, r0, dim, dim - 1, dim_g)


def verify_resolution_chern(report: PresentationReport) -> bool:
    """Check ch(R^0) - ch(R^-1) against the character of (2, -1, c2, c3).

    Both sides are compared exactly as integer tuples scaled by 3! = 6
    (see the module docstring).  It holds for every built report, and fails
    for one with a perturbed c3 (``report._replace(c3=...)``).
    """
    resolved = tuple(
        a - b
        for a, b in zip(
            _scaled_character(report.r0, 3),
            _scaled_character(report.r_minus1, 3),
        )
    )
    return resolved == _scaled_target(report.c2, report.c3)

"""Explicit cohomology, Euler-characteristic, and ch_3 bounds.

All bounds are driven by two exact quantities attached to a rank-n sheaf
with first Chern class c_1, second character ch_2, and splitting type b:

* the splitting radius  t = |c_1|/n + n,  which boxes every b_i, and
* the twist- and dual-invariant h^1 bound  -ch_2 + (1/2) * sum b_i^2.

From these the vanishing constant Q, the per-degree cohomology bounds on
P^2 and P^3, the worst-case Euler bound, and the ch_3 bound are assembled
exactly as rational numbers.  Worst-case variants substitute b_i = t;
per-splitting-type variants keep the sharper sum of squares.

The P^3 bounds are evaluated exactly in scaled integers: with
t = (|c_1| + n^2)/n and ch_2 = p/q, each one is an integer polynomial in
n, |c_1|, p, q and sum b_i^2 over a fixed denominator (2nq for Q and the
h^1 factor, 12n^2q^2 for the Euler and ch_3 bounds), and one Fraction is
built per reported value.  ``tests/test_identities.py`` proves the scaled
forms equal the rational formulas symbolically.

Factors that bound dimensions are clamped at 0 by default (a negative
"bound" just means the cohomology vanishes); pass ``literal_mode=True``
to reproduce the raw formulas for auditing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .chow import (
    ChernCharacter,
    RationalLike,
    as_rational,
)
from .errors import (
    DimensionMismatchError,
    InadmissibleParameterError,
    IntegralityError,
    RankMismatchError,
)
from .splitting import SplittingType, splitting_radius


def h0_line_bundle(n: int, k: int) -> int:
    """Global-section count of O(k) on P^n: C(k+n, n) for k >= 0, else 0."""
    if n < 1:
        raise InadmissibleParameterError(f"projective dimension must be >= 1, got {n}")
    if k < 0:
        return 0
    return comb(k + n, n)


def extreme_bounds(b: SplittingType, N: int) -> tuple[int, int]:
    """Bounds for the outermost cohomology of a sheaf on P^N of splitting type b.

    h^0 is at most h^0 O(b) = sum_i h^0 O(b_i) and h^N at most
    h^0 O(-b - N - 1) = sum_i h^0 O(-b_i - N - 1).
    """
    if N not in (2, 3):
        raise DimensionMismatchError(f"extreme bounds are defined on P^2 and P^3, not P^{N}")
    low = sum(h0_line_bundle(N, entry) for entry in b)
    high = sum(h0_line_bundle(N, -entry - N - 1) for entry in b)
    return low, high


def _paired_section_bound(entry: int) -> Fraction:
    # (b+1)(b+2)/2 equals whichever of h^0 O(b), h^0 O(-b-3) is positive on P^2
    return Fraction((entry + 1) * (entry + 2), 2)


def p2_bounds(
    b: SplittingType, ch: ChernCharacter
) -> tuple[Fraction, Fraction, Fraction]:
    """Per-degree bounds (h^0, h^1, h^2) for a sheaf on P^2.

    h^0 and h^2 are bounded by sum_i C(b_i + 2, 2); h^1 by the same sum
    minus the Euler characteristic n + (3/2) c_1 + ch_2.  The values are
    returned verbatim (no clamping).
    """
    if ch.ambient_dim != 2:
        raise DimensionMismatchError("p2_bounds expects a P^2 character")
    if ch.rank != b.rank:
        raise RankMismatchError(
            f"character rank {ch.rank} != splitting type length {b.rank}"
        )
    section_sum = sum((_paired_section_bound(entry) for entry in b), Fraction(0))
    chi = ch.ch0 + Fraction(3, 2) * ch.ch1 + ch.ch2
    return section_sum, -chi + section_sum, section_sum


def h1_invariant_bound(b: SplittingType, ch2: RationalLike) -> Fraction:
    """The twist- and dual-invariant h^1 bound: -ch_2 + (1/2) sum b_i^2."""
    return -as_rational(ch2) + Fraction(b.square_sum, 2)


def vanishing_Q(n: int, c1: int, ch2: RationalLike, b: SplittingType) -> Fraction:
    """The vanishing constant Q = |c_1|/n + n + 4 - ch_2 + (1/2) sum b_i^2.

    For k >= Q all four of h^1 F(k), h^2 F(k), h^0 F(-k), h^1 F(-k) vanish
    on P^2.  Q subsumes the four per-step vanishing thresholds (k above
    b_max, -b_min - 3, -b_min + inv and b_max + 3 + inv, with inv the
    invariant h^1 bound) via the magnitude bound on b_max and b_min.
    """
    if b.rank != n:
        raise RankMismatchError(f"splitting type length {b.rank} != rank {n}")
    return splitting_radius(n, c1) + 4 + h1_invariant_bound(b, ch2)


def _check_rank(n: int) -> None:
    if n < 1:
        raise InadmissibleParameterError(f"rank must be >= 1, got {n}")


def euler_bound(
    n: int, c1: int, ch2: RationalLike, literal_mode: bool = False
) -> Fraction:
    """Worst-case bound for |chi(F)| in terms of rank, c_1, and ch_2 alone.

    With t = |c_1|/n + n this is
    2 (t + 4 - ch_2 + n t^2 / 2)(-ch_2 + n t^2 / 2) + (n/6)(t + 3)^3,
    i.e. the splitting-type-dependent quantities evaluated at b_i = t.
    """
    _check_rank(n)
    return _evaluate(n, c1, as_rational(ch2), None, literal_mode).euler_bound


def ch3_bound(
    n: int, c1: int, ch2: RationalLike, literal_mode: bool = False
) -> Fraction:
    """Strict bound for |ch_3| of a mu-semistable reflexive sheaf on P^3.

    Equals the Euler bound plus 2|ch_2| + (11/6)|c_1| + n; any such sheaf
    satisfies |ch_3| < ch3_bound(n, c1, ch2) strictly.
    """
    _check_rank(n)
    return _evaluate(n, c1, as_rational(ch2), None, literal_mode).ch3_bound


@dataclass(frozen=True)
class BoundReport:
    """Bundle of every explicit bound for fixed invariants (and type, if any).

    ``h_bounds`` lists upper bounds for h^0 .. h^3.  When no splitting type
    is supplied the worst case b_i = t is substituted; degrees 0 and 3 then
    share the joint section bound (n/6)(t + 3)^3, which dominates each of
    them separately.  ``euler_bound`` and ``ch3_bound`` always refer to the
    worst-case formulas, which depend on the invariants only.
    """

    rank: int
    c1: int
    ch2: Fraction
    splitting_radius: Fraction
    q: Fraction
    q_int: int
    h_bounds: tuple[Fraction, Fraction, Fraction, Fraction]
    euler_bound: Fraction
    ch3_bound: Fraction
    literal_mode: bool
    splitting_type: SplittingType | None = None


def _scaled(
    n: int, a: int, p: int, q: int, square_sum: int | None
) -> tuple[int, int, int, int, int, int, int]:
    """Scaled-integer numerators of the P^3 bounds.

    With t = (a + n^2)/n for a = |c_1|, and ch_2 = p/q, returns
    ``(nt, den, h1_worst, h1, shift, sections, ch3_shift)``, each an integer
    polynomial in n, a, p, q and ``square_sum`` = sum b_i^2:

    * nt = n t;
    * over den = 2nq: the h^1 factor -ch_2 + n t^2 / 2 of the worst case
      b_i = t (h1_worst) and -ch_2 + square_sum / 2 (h1, the worst case
      again when ``square_sum`` is None); Q is either one plus
      shift = 2nq (t + 4);
    * over 3 den^2 = 12 n^2 q^2: the section term (n/6)(t + 3)^3 and
      ch3_shift = 2|ch_2| + (11/6)|c_1| + n; the Euler bound is
      6 Q h1_worst + sections with Q = h1_worst + shift (both factors
      clamped at 0 unless in literal mode), and the ch_3 bound is that
      plus ch3_shift.

    Only +, -, * and abs appear, so sympy symbols evaluate it too
    (``tests/test_identities.py`` proves each numerator that way).
    """
    nt = a + n * n
    den = 2 * n * q
    h1_worst = q * nt * nt - 2 * n * p
    h1 = h1_worst if square_sum is None else n * (q * square_sum - 2 * p)
    shift = 2 * q * (nt + 4 * n)
    sections = 2 * q * q * (nt + 3 * n) ** 3
    ch3_shift = 2 * n * n * q * (12 * abs(p) + q * (11 * a + 6 * n))
    return nt, den, h1_worst, h1, shift, sections, ch3_shift


def _clamped_product(x: int, y: int, literal_mode: bool) -> int:
    if literal_mode or (x > 0 and y > 0):
        return x * y
    return 0


def _evaluate(
    n: int, c1: int, ch2: Fraction, b: SplittingType | None, literal_mode: bool
) -> BoundReport:
    """The report's fields from the numerators of :func:`_scaled`, one Fraction each.

    The caller has checked the rank and, if b is given, its length.
    """
    nt, den, h1_worst, h1, shift, sections, ch3_shift = _scaled(
        n, abs(c1), ch2.numerator, ch2.denominator, None if b is None else b.square_sum
    )
    wide = 3 * den * den
    euler = 6 * _clamped_product(h1_worst + shift, h1_worst, literal_mode) + sections
    if b is None:
        outer_low = outer_high = Fraction(sections, wide)
    else:
        low, high = extreme_bounds(b, 3)
        outer_low, outer_high = Fraction(low), Fraction(high)
    q_num = h1 + shift
    middle = Fraction(_clamped_product(q_num, h1, literal_mode), den * den)
    return BoundReport(
        rank=n,
        c1=c1,
        ch2=ch2,
        splitting_radius=Fraction(nt, n),
        q=Fraction(q_num, den),
        q_int=-(-q_num // den),
        h_bounds=(outer_low, middle, middle, outer_high),
        euler_bound=Fraction(euler, wide),
        ch3_bound=Fraction(euler + ch3_shift, wide),
        literal_mode=literal_mode,
        splitting_type=b,
    )


def bound_report(
    n: int,
    c1: int,
    ch2: RationalLike,
    b: SplittingType | None = None,
    literal_mode: bool = False,
) -> BoundReport:
    """Assemble the full :class:`BoundReport` for the given invariants.

    With a splitting type the middle cohomology uses the sharper invariant
    bound and the extremes use the exact section counts; without one, every
    splitting-type quantity is evaluated at the magnitude radius t.  The
    fields come from the same scaled-integer evaluation as
    :func:`euler_bound` and :func:`ch3_bound`, so they equal those functions
    exactly.
    """
    _check_rank(n)
    ch2 = as_rational(ch2)
    if b is not None and b.rank != n:
        raise RankMismatchError(f"splitting type length {b.rank} != rank {n}")
    return _evaluate(n, c1, ch2, b, literal_mode)


def p3_bounds(
    b: SplittingType, ch: ChernCharacter, literal_mode: bool = False
) -> BoundReport:
    """Per-splitting-type bound report for a sheaf on P^3.

    h^0 and h^3 come from the section counts of O(b) and O(-b-4); h^1 and
    h^2 are bounded by Q * (-ch_2 + (1/2) sum b_i^2), where Q sees the rank,
    c_1 and ch_2 of the restriction to a hyperplane, i.e. of the character
    itself with ch_3 dropped.
    """
    if ch.ambient_dim != 3:
        raise DimensionMismatchError("p3_bounds expects a P^3 character")
    rank, ch1, ch2 = ch.components[:3]
    if rank < 1:
        raise InadmissibleParameterError(
            f"bounds require an honest sheaf rank >= 1, got {ch.rank}"
        )
    if ch1.denominator != 1:
        raise IntegralityError(f"c_1 must be an integer, got {ch1}")
    if rank != b.rank:
        raise RankMismatchError(
            f"character rank {ch.rank} != splitting type length {b.rank}"
        )
    return _evaluate(rank.numerator, ch1.numerator, ch2, b, literal_mode)


def _ch2_of_classes(c1: int, c2: int) -> Fraction:
    return Fraction(c1 * c1 - 2 * c2, 2)


def enumerate_admissible_c3(r: int, c1: int, c2: int) -> tuple[int, int]:
    """The maximal integer interval of c_3 compatible with the ch_3 bound.

    Returns (c3_min, c3_max) such that |ch_3(r, c1, c2, c3)| < ch3_bound
    holds strictly for every c3 in the closed interval and fails at
    c3_min - 1 and c3_max + 1.  Since ch_3 moves by 1/2 per unit of c_3,
    the interval is finite.
    """
    if r < 1:
        raise InadmissibleParameterError(f"rank must be >= 1, got {r}")
    return _c3_interval(c1, c2, ch3_bound(r, c1, _ch2_of_classes(c1, c2)))


def _c3_interval(c1: int, c2: int, bound: Fraction) -> tuple[int, int]:
    """The c_3 interval of :func:`enumerate_admissible_c3` for a given ch_3 bound."""
    # 6 ch_3 = base + 3 c3; with bound = N/D,
    # |base + 3 c3| < 6N/D  <=>  -(base D + 6N) < 3D c3 < 6N - base D
    base = c1**3 - 3 * c1 * c2
    num, den = bound.numerator, bound.denominator
    c3_min = -(base * den + 6 * num) // (3 * den) + 1
    c3_max = -((base * den - 6 * num) // (3 * den)) - 1
    return c3_min, c3_max

"""Explicit cohomology, Euler-characteristic, and ch_3 bounds on P^3.

All bounds are driven by two exact quantities attached to a rank-n sheaf
with first Chern class c_1, second character ch_2, and splitting type b:

* the splitting radius  t = |c_1|/n + n,  which boxes every b_i, and
* the twist- and dual-invariant h^1 bound  -ch_2 + (1/2) * sum b_i^2.

From these the vanishing constant Q, the per-degree cohomology bounds,
the worst-case Euler bound, and the ch_3 bound are assembled exactly as
rational numbers.  Worst-case variants substitute b_i = t;
per-splitting-type variants keep the sharper sum of squares.

The bounds are evaluated exactly in scaled integers: with
t = (|c_1| + n^2)/n and ch_2 = p/q, each one is an integer polynomial in
n, |c_1|, p, q and sum b_i^2 over a fixed denominator (2nq for Q and the
h^1 factor, 12n^2q^2 for the Euler and ch_3 bounds), and one Fraction is
built per reported value.  ``tests/test_identities.py`` proves the scaled
forms equal the rational formulas symbolically.

Two per-process memo caches split every evaluation in two, so each value
is built once:

* The character part -- the splitting radius, the worst-case section
  term, the Euler and ch_3 bounds and the integers Q and the h^1 factor
  are built from -- depends on (n, c_1, ch_2, mode) alone.  It is keyed by
  the ints ``(n, c_1, p, q, literal_mode)`` with p/q reduced, which each
  caller already holds (:func:`enumerate_admissible_c3` reduces
  (c_1^2 - 2c_2)/2 in integers), and keeps the most recent
  ``_CHARACTER_CACHE_SIZE`` characters, so every splitting type of one
  character, and the entry points without a type, read one entry.
* The splitting-type part -- c_1, sum b_i^2 and the two section counts --
  is keyed by the immutable :class:`SplittingType` and keeps the most
  recent ``_TYPE_CACHE_SIZE`` types.

Only Q and the middle bounds are built per call, and the report is built
positionally from them and the two cached parts.  The inputs are checked
before either cache is read, so errors are never cached: a rejected input
raises on every call.

Factors that bound dimensions are clamped at 0 by default (a negative
"bound" just means the cohomology vanishes); pass ``literal_mode=True``
to reproduce the raw formulas for auditing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .chow import ChernCharacter, RationalLike, as_rational
from .errors import (
    DimensionMismatchError,
    InadmissibleParameterError,
    IntegralityError,
    RankMismatchError,
    check_integer,
)
from .splitting import SplittingType, splitting_radius

# distinct splitting types whose per-type terms stay computed
_TYPE_CACHE_SIZE = 4096
# distinct (n, c_1, ch_2, mode) whose character terms stay computed
_CHARACTER_CACHE_SIZE = 256


def h0_line_bundle(n: int, k: int) -> int:
    """Global-section count of O(k) on P^n: C(k+n, n) for k >= 0, else 0."""
    check_integer("projective dimension", n)
    check_integer("twist", k)
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


def _check_rank(n: int, c1: int) -> None:
    check_integer("rank", n)
    check_integer("c_1", c1)
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
    _check_rank(n, c1)
    ch2 = as_rational(ch2)
    return _character_terms(n, c1, ch2.numerator, ch2.denominator, bool(literal_mode)).euler_bound


def ch3_bound(
    n: int, c1: int, ch2: RationalLike, literal_mode: bool = False
) -> Fraction:
    """Strict bound for |ch_3| of a mu-semistable reflexive sheaf on P^3.

    Equals the Euler bound plus 2|ch_2| + (11/6)|c_1| + n; any such sheaf
    satisfies |ch_3| < ch3_bound(n, c1, ch2) strictly.
    """
    _check_rank(n, c1)
    ch2 = as_rational(ch2)
    return _character_terms(n, c1, ch2.numerator, ch2.denominator, bool(literal_mode)).ch3_bound


class BoundReport(NamedTuple):
    """Bundle of every explicit bound for fixed invariants (and type, if any).

    ``h_bounds`` lists upper bounds for h^0 .. h^3.  When no splitting type
    is supplied the worst case b_i = t is substituted; degrees 0 and 3 then
    share the joint section bound (n/6)(t + 3)^3, which dominates each of
    them separately.  ``euler_bound`` and ``ch3_bound`` always refer to the
    worst-case formulas, which depend on the invariants only.

    Reports may share their ``Fraction`` objects: the reports of one
    character read while its cache entry lives hold the same
    ``splitting_radius``, ``euler_bound`` and ``ch3_bound``, and the
    reports of one splitting type the same outer section bounds.  A
    ``Fraction`` is immutable, so only ``is`` can tell.
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


def _scaled(n: int, a: int, p: int, q: int) -> tuple[int, int, int, int, int, int]:
    """Scaled-integer numerators of the P^3 bounds.

    With t = (a + n^2)/n for a = |c_1|, and ch_2 = p/q, returns
    ``(nt, den, h1_worst, shift, sections, ch3_shift)``, each an integer
    polynomial in n, a, p and q:

    * nt = n t;
    * over den = 2nq: h1_worst, the h^1 factor -ch_2 + n t^2 / 2 of the
      worst case b_i = t, and shift = 2nq (t + 4); Q is an h^1 factor
      plus shift (:func:`_typed_h1` gives the factor of a splitting type);
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
    shift = 2 * q * (nt + 4 * n)
    sections = 2 * q * q * (nt + 3 * n) ** 3
    ch3_shift = 2 * n * n * q * (12 * abs(p) + q * (11 * a + 6 * n))
    return nt, den, h1_worst, shift, sections, ch3_shift


def _typed_h1(n: int, p: int, q: int, square_sum: int) -> int:
    """The h^1 factor -ch_2 + square_sum / 2 of a splitting type with
    sum b_i^2 = square_sum, over den = 2nq of :func:`_scaled`."""
    return n * (q * square_sum - 2 * p)


def _clamped_product(x: int, y: int, literal_mode: bool) -> int:
    if literal_mode or (x > 0 and y > 0):
        return x * y
    return 0


class _CharacterTerms(NamedTuple):
    """What every report of one character and mode shares.

    The ints of :func:`_scaled` that Q and the h^1 factor are built from,
    and the Fractions t, (n/6)(t + 3)^3 and the two worst-case bounds.
    """

    den: int
    h1_worst: int
    shift: int
    splitting_radius: Fraction
    sections: Fraction
    euler_bound: Fraction
    ch3_bound: Fraction


@lru_cache(maxsize=_CHARACTER_CACHE_SIZE)
def _character_terms(n: int, c1: int, p: int, q: int, literal_mode: bool) -> _CharacterTerms:
    """The shared terms of (n, c_1, ch_2 = p/q reduced) in one mode.

    No Fraction is hashed.  The caller has checked that n and c1 are ints:
    a float would read the entry of the int it equals.
    """
    nt, den, h1_worst, shift, sections, ch3_shift = _scaled(n, abs(c1), p, q)
    wide = 3 * den * den
    euler = 6 * _clamped_product(h1_worst + shift, h1_worst, literal_mode) + sections
    return _CharacterTerms(
        den,
        h1_worst,
        shift,
        Fraction(nt, n),
        Fraction(sections, wide),
        Fraction(euler, wide),
        Fraction(euler + ch3_shift, wide),
    )


@lru_cache(maxsize=_TYPE_CACHE_SIZE)
def _type_terms(b: SplittingType) -> tuple[int, int, Fraction, Fraction]:
    """``(c_1, sum b_i^2, h^0 O(b), h^0 O(-b-4))`` of b on P^3."""
    low, high = extreme_bounds(b, 3)
    return b.c1, b.square_sum, Fraction(low), Fraction(high)


def _evaluate(
    n: int,
    c1: int,
    ch2: Fraction,
    b: SplittingType | None,
    terms: tuple[int, int, Fraction, Fraction] | None,
    literal_mode: bool,
) -> BoundReport:
    """The report: its character part from the cache, Q and the middle bounds built here.

    ``terms`` is ``_type_terms(b)``, or None when b is.  The caller has
    checked the rank and c1 and, if b is given, that it fits them.
    """
    p, q, mode = ch2.numerator, ch2.denominator, bool(literal_mode)
    den, h1_worst, shift, radius, sections, euler, ch3 = _character_terms(n, c1, p, q, mode)
    if terms is None:
        h1 = h1_worst
        outer_low = outer_high = sections
    else:
        h1 = _typed_h1(n, p, q, terms[1])
        outer_low, outer_high = terms[2], terms[3]
    q_num = h1 + shift
    middle = Fraction(_clamped_product(q_num, h1, literal_mode), den * den)
    # positional: keywords cost a NamedTuple twice as much per report
    return BoundReport(
        n, c1, ch2, radius, Fraction(q_num, den), -(-q_num // den),
        (outer_low, middle, middle, outer_high), euler, ch3, literal_mode, b,
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

    A given b must have length n, sum to c1 and keep every entry within
    the splitting radius |c1|/n + n; otherwise this raises.
    """
    _check_rank(n, c1)
    ch2 = as_rational(ch2)
    terms = None
    if b is not None:
        if b.rank != n:
            raise RankMismatchError(f"splitting type length {b.rank} != rank {n}")
        if b.c1 != c1:
            raise InadmissibleParameterError(
                f"b = {b} is not a splitting type of rank {n} and c1 {c1}"
            )
        # |e| > |c1|/n + n, times n > 0: the radius test in ints
        limit = abs(c1) + n * n
        if any(n * abs(entry) > limit for entry in b):
            raise InadmissibleParameterError(
                f"b = {b} has an entry of magnitude above the splitting radius "
                f"{splitting_radius(n, c1)}"
            )
        terms = _type_terms(b)
    return _evaluate(n, c1, ch2, b, terms, literal_mode)


def p3_bounds(
    b: SplittingType, ch: ChernCharacter, literal_mode: bool = False
) -> BoundReport:
    """Per-splitting-type bound report for a sheaf on P^3.

    h^0 and h^3 come from the section counts of O(b) and O(-b-4); h^1 and
    h^2 are bounded by Q * (-ch_2 + (1/2) sum b_i^2), where Q sees the rank,
    c_1 and ch_2 of the restriction to a hyperplane, i.e. of the character
    itself with ch_3 dropped.  The entries of b must sum to c_1.
    """
    if ch.ambient_dim != 3:
        raise DimensionMismatchError("p3_bounds expects a P^3 character")
    rank, ch1, ch2 = ch.components[:3]
    n = rank.numerator  # ch_0 is an integer
    if n < 1:
        raise InadmissibleParameterError(
            f"bounds require an honest sheaf rank >= 1, got {n}"
        )
    if ch1.denominator != 1:
        raise IntegralityError(f"c_1 must be an integer, got {ch1}")
    c1 = ch1.numerator
    if n != b.rank:
        raise RankMismatchError(
            f"character rank {n} != splitting type length {b.rank}"
        )
    terms = _type_terms(b)
    if terms[0] != c1:
        raise InadmissibleParameterError(
            f"splitting type {b} sums to {terms[0]}, not to c_1 = {c1}"
        )
    return _evaluate(n, c1, ch2, b, terms, literal_mode)


def _ch2_of_classes(c1: int, c2: int) -> Fraction:
    return Fraction(c1 * c1 - 2 * c2, 2)


def enumerate_admissible_c3(r: int, c1: int, c2: int) -> tuple[int, int]:
    """The maximal integer interval of c_3 compatible with the ch_3 bound.

    Returns (c3_min, c3_max) such that |ch_3(r, c1, c2, c3)| < ch3_bound
    holds strictly for every c3 in the closed interval and fails at
    c3_min - 1 and c3_max + 1.  Since ch_3 moves by 1/2 per unit of c_3,
    the interval is finite.
    """
    _check_rank(r, c1)
    check_integer("c_2", c2)
    # ch_2 = p/2 with p = c_1^2 - 2 c_2, reduced: p is odd exactly when c_1 is
    p = c1 * c1 - 2 * c2
    p, q = (p, 2) if c1 % 2 else (p // 2, 1)
    return _c3_interval(c1, c2, _character_terms(r, c1, p, q, False).ch3_bound)


def _c3_interval(c1: int, c2: int, bound: Fraction) -> tuple[int, int]:
    """The c_3 interval of :func:`enumerate_admissible_c3` for a given ch_3 bound."""
    # 6 ch_3 = base + 3 c3; with bound = N/D,
    # |base + 3 c3| < 6N/D  <=>  -(base D + 6N) < 3D c3 < 6N - base D
    base = c1**3 - 3 * c1 * c2
    num, den = bound.numerator, bound.denominator
    c3_min = -(base * den + 6 * num) // (3 * den) + 1
    c3_max = -((base * den - 6 * num) // (3 * den)) - 1
    return c3_min, c3_max

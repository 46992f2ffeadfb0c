"""Tests for the explicit cohomology, Euler, and ch_3 bounds."""

import itertools
import random
import sys
from fractions import Fraction
from math import ceil, comb, floor
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from chowkit import bounds
from chowkit.bounds import (
    bound_report,
    ch3_bound,
    enumerate_admissible_c3,
    euler_bound,
    extreme_bounds,
    h0_line_bundle,
    p3_bounds,
)
from chowkit.chow import ChernCharacter, ChernClasses, chern_to_character, dual, twist
from chowkit.errors import (
    DimensionMismatchError,
    InadmissibleParameterError,
    IntegralityError,
    RankMismatchError,
)
from chowkit.resolutions import admissible_s
from chowkit.splitting import SplittingType, enumerate_splitting_types, splitting_radius

from conftest import (
    c3_oracle,
    h1_invariant_bound,
    negated_type,
    random_rational,
    random_splitting_type,
    twisted_type,
)

F = Fraction
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def vanishing_Q(n, c1, ch2, b):
    """Oracle: the vanishing constant Q = |c_1|/n + n + 4 - ch_2 + (1/2) sum b_i^2.

    For k >= Q all four of h^1 F(k), h^2 F(k), h^0 F(-k), h^1 F(-k) vanish
    on P^2.  Q subsumes the four per-step vanishing thresholds (k above
    b_max, -b_min - 3, -b_min + inv and b_max + 3 + inv, with inv the
    invariant h^1 bound) via the magnitude bound on b_max and b_min.
    """
    return F(abs(c1), n) + n + 4 + h1_invariant_bound(b, ch2)


def monomial_count(n, k):
    """Oracle: count exponent tuples (e_1..e_n) with sum <= k, one per monomial."""
    if k < 0:
        return 0
    return sum(
        1
        for exps in itertools.product(range(k + 1), repeat=n)
        if sum(exps) <= k
    )


# ---------------------------------------------------------------------------
# section counts and extreme bounds


def test_h0_line_bundle_examples():
    assert h0_line_bundle(3, 0) == 1
    assert h0_line_bundle(3, -1) == 0
    assert h0_line_bundle(2, 3) == 10


def test_h0_line_bundle_matches_monomial_count():
    for n in (1, 2, 3):
        for k in range(-3, 7):
            assert h0_line_bundle(n, k) == monomial_count(n, k), (n, k)


def test_h0_line_bundle_rejects_bad_dimension():
    with pytest.raises(InadmissibleParameterError):
        h0_line_bundle(0, 1)


@pytest.mark.parametrize(
    "n, k",
    [(3, True), (3, 1.5), (3, "1"), (True, 3), (3.0, 1)],
    ids=["bool-k", "float-k", "str-k", "bool-n", "float-n"],
)
def test_h0_line_bundle_rejects_a_non_int(n, k):
    # a bool would count the sections of O(1) and a float reach comb()
    with pytest.raises(IntegralityError, match="must be an integer"):
        h0_line_bundle(n, k)


def test_extreme_bounds_recomputed_targets():
    assert extreme_bounds(SplittingType((0, -1)), 3) == (1, 0)
    assert extreme_bounds(SplittingType((2,)), 2) == (6, 0)
    assert extreme_bounds(SplittingType((-3,)), 2) == (0, 1)


@pytest.mark.parametrize("N", [1, 4])
def test_extreme_bounds_rejects_other_dimensions(N):
    with pytest.raises(DimensionMismatchError, match=f"not P\\^{N}"):
        extreme_bounds(SplittingType((0, -1)), N)


def test_extreme_bounds_against_direct_sums():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.choice((2, 3))
        b = random_splitting_type(rng)
        low, high = extreme_bounds(b, n)
        assert low == sum(h0_line_bundle(n, e) for e in b)
        assert high == sum(h0_line_bundle(n, -e - n - 1) for e in b)


# ---------------------------------------------------------------------------
# the invariant h^1 bound


def test_p3_h1_bound_equals_invariant_form():
    # the literal middle bound is Q times the invariant h^1 bound, whatever
    # the entries' magnitudes (p3_bounds checks only their sum)
    rng = random.Random(22)
    for _ in range(200):
        b = random_splitting_type(rng)
        ch2 = random_rational(rng)
        ch = ChernCharacter.of(3, b.rank, b.c1, ch2, 0)
        report = p3_bounds(b, ch, literal_mode=True)
        inv = h1_invariant_bound(b, ch2)
        assert report.h_bounds[1] == report.h_bounds[2] == vanishing_Q(b.rank, b.c1, ch2, b) * inv


def test_h1_invariant_bound_hand_values():
    assert h1_invariant_bound(SplittingType((0, -1)), F(-9, 2)) == 5
    assert h1_invariant_bound(SplittingType((0, 0)), F(0)) == 0


def test_h1_invariant_bound_twist_and_dual_invariance():
    rng = random.Random(23)
    for _ in range(200):
        b = random_splitting_type(rng)
        ch2 = random_rational(rng)
        ch = ChernCharacter.of(2, b.rank, b.c1, ch2)
        base = h1_invariant_bound(b, ch2)
        for k in range(-5, 6):
            twisted = twist(ch, k)
            assert h1_invariant_bound(twisted_type(b, k), twisted.ch2) == base
        # dual: entries negate and reverse, ch2 stays
        assert h1_invariant_bound(negated_type(b), ch2) == base


@given(
    st.lists(st.integers(-12, 12), min_size=1, max_size=7),
    st.fractions(min_value=-200, max_value=200, max_denominator=12),
    st.fractions(min_value=-200, max_value=200, max_denominator=12),
    st.integers(-20, 20),
)
def test_h1_invariant_bound_is_twist_and_dual_invariant(entries, ch2, ch3, k):
    b = SplittingType(tuple(entries))
    ch = ChernCharacter(3, (F(b.rank), F(b.c1), ch2, ch3))
    base = h1_invariant_bound(b, ch.ch2)
    assert h1_invariant_bound(twisted_type(b, k), twist(ch, k).ch2) == base
    assert h1_invariant_bound(negated_type(b), dual(ch).ch2) == base


# ---------------------------------------------------------------------------
# vanishing constant and step thresholds


def test_vanishing_q_hand_values():
    for n, c1, ch2, b, expected in [
        (2, -1, F(-9, 2), SplittingType((0, -1)), F(23, 2)),
        (1, 0, F(0), SplittingType((0,)), 5),
        (2, 0, F(-5), SplittingType((0, 0)), 11),
    ]:
        assert vanishing_Q(n, c1, ch2, b) == expected
        assert bound_report(n, c1, ch2, b).q == expected


def test_vanishing_q_rejects_rank_mismatch():
    # the library's Q comes with a report, which checks the type's length
    with pytest.raises(RankMismatchError):
        bound_report(3, 0, F(0), SplittingType((0, 0)))
    with pytest.raises(RankMismatchError):
        p3_bounds(SplittingType((0, 0)), ChernCharacter.of(3, 3, 0, 0, 0))


def step_thresholds(b, ch2):
    """The four per-step vanishing thresholds on P^2 that Q subsumes.

    In order, vanishing of h^0 F(-k), h^2 F(k), h^1 F(k), h^1 F(-k) holds
    for k strictly above b_max, -b_min - 3, -b_min + inv, b_max + 3 + inv,
    where inv is the invariant h^1 bound.
    """
    inv = h1_invariant_bound(b, ch2)
    b_max, b_min = b.entries[0], b.entries[-1]
    return (b_max, -b_min - 3, -b_min + inv, b_max + 3 + inv)


def test_step_thresholds_values_and_dominance():
    b = SplittingType((0, -1))
    inv = h1_invariant_bound(b, F(-9, 2))
    assert step_thresholds(b, F(-9, 2)) == (0, -2, 1 + inv, 3 + inv)
    # Q dominates all four steps whenever the magnitude bound holds and the
    # invariant bound is nonnegative
    rng = random.Random(24)
    checked = 0
    while checked < 100:
        b = random_splitting_type(rng, max_rank=4, span=4)
        ch2 = random_rational(rng)
        radius = F(abs(b.c1), b.rank) + b.rank
        if any(abs(e) > radius for e in b) or h1_invariant_bound(b, ch2) < 0:
            continue
        q = vanishing_Q(b.rank, b.c1, ch2, b)
        assert all(q > threshold for threshold in step_thresholds(b, ch2))
        checked += 1


# ---------------------------------------------------------------------------
# Euler and ch_3 bounds


def test_euler_bound_hand_values():
    # (2, -1, -9/2): factors 69/4 and 43/4, cube term (1/3)(11/2)^3
    expected = 2 * F(69, 4) * F(43, 4) + F(1, 3) * F(11, 2) ** 3
    assert expected == F(1279, 3)
    assert euler_bound(2, -1, F(-9, 2)) == expected
    # (2, 0, -5): t = 2, factors 15 and 9
    assert euler_bound(2, 0, F(-5)) == 270 + F(125, 3)
    assert euler_bound(2, 0, F(-5)) == F(935, 3)
    # (1, 0, 0): t = 1, 2 * (11/2) * (1/2) + (1/6) * 4^3
    assert euler_bound(1, 0, F(0)) == F(11, 2) + F(32, 3)
    assert euler_bound(1, 0, F(0)) == F(97, 6)


def test_ch3_bound_hand_values():
    assert ch3_bound(2, -1, F(-9, 2)) == F(1279, 3) + 9 + F(11, 6) + 2
    assert ch3_bound(2, -1, F(-9, 2)) == F(2635, 6)
    assert ch3_bound(2, 0, F(-5)) == F(935, 3) + 12
    # consistency: the bound exceeds the ch_3 of the example sheaf
    assert ch3_bound(2, -1, F(-9, 2)) > abs(F(71, 6))


def test_ch3_bound_symmetric_in_c1_sign():
    rng = random.Random(25)
    for _ in range(100):
        n = rng.randint(1, 5)
        c1 = rng.randint(-8, 8)
        ch2 = random_rational(rng)
        assert ch3_bound(n, c1, ch2) == ch3_bound(n, -c1, ch2)


def test_bounds_reject_nonpositive_rank():
    with pytest.raises(InadmissibleParameterError):
        euler_bound(0, 1, F(0))
    with pytest.raises(InadmissibleParameterError):
        ch3_bound(-1, 1, F(0))


# ---------------------------------------------------------------------------
# bound reports


def test_p3_bounds_hand_values():
    report = p3_bounds(
        SplittingType((0, -1)), ChernCharacter.of(3, 2, -1, "-9/2", "71/6")
    )
    assert report.q == F(23, 2)
    assert report.q_int == 12
    assert report.h_bounds == (1, F(115, 2), F(115, 2), 0)
    assert report.splitting_radius == F(5, 2)
    assert report.euler_bound == F(1279, 3)
    assert report.ch3_bound == F(2635, 6)

    trivial = p3_bounds(SplittingType((0,)), ChernCharacter.of(3, 1, 0, 0, 0))
    assert trivial.h_bounds[1] == 0
    assert trivial.h_bounds[2] == 0


def test_p3_bounds_clamps_positive_ch2():
    report = p3_bounds(
        SplittingType((0, 0)), ChernCharacter.of(3, 2, 0, 10, 0)
    )
    assert report.h_bounds[1] == 0
    assert report.h_bounds[2] == 0
    literal = p3_bounds(
        SplittingType((0, 0)), ChernCharacter.of(3, 2, 0, 10, 0), literal_mode=True
    )
    # raw factors are -4 and -10; the literal product is positive noise,
    # which is exactly why the default clamps the factors first
    assert literal.q == -4
    assert literal.h_bounds[1] == 40


def test_p3_bounds_rejects_bad_inputs():
    with pytest.raises(InadmissibleParameterError):
        p3_bounds(SplittingType((0,)), ChernCharacter.of(3, 0, 1, 0, 0))
    with pytest.raises(RankMismatchError):
        p3_bounds(SplittingType((0,)), ChernCharacter.of(3, 2, 0, 0, 0))
    with pytest.raises(DimensionMismatchError):
        p3_bounds(SplittingType((0,)), ChernCharacter.of(2, 1, 0, 0))
    # the entries must sum to c_1
    with pytest.raises(InadmissibleParameterError, match="sums to 10"):
        p3_bounds(SplittingType((5, 5)), ChernCharacter.of(3, 2, -1, "-9/2", "71/6"))
    # c_1 must be an integer
    with pytest.raises(IntegralityError, match="c_1 must be an integer, got 1/2"):
        p3_bounds(SplittingType((0, 0)), ChernCharacter.of(3, 2, "1/2", 0, 0))


@pytest.mark.parametrize(
    "c1, entries, problem",
    [
        (-1, (5, 5), "is not a splitting type"),
        (-1, (0, 0), "is not a splitting type"),
        (0, (3, -3), "above the splitting radius 2"),
        (-1, (3, -4), "above the splitting radius 5/2"),
        (-1, (2, -3), "above the splitting radius 5/2"),
    ],
)
def test_bound_report_rejects_an_inconsistent_splitting_type(c1, entries, problem):
    with pytest.raises(InadmissibleParameterError, match=problem):
        bound_report(2, c1, F(-9, 2), SplittingType(entries))
    with pytest.raises(RankMismatchError):
        bound_report(3, c1, F(-9, 2), SplittingType(entries))


def test_bound_report_takes_entries_on_the_splitting_radius():
    # radius exactly 2 for (n, c1) = (2, 0) and 5/2 for (2, -1)
    for c1, entries in ((0, (2, -2)), (-1, (1, -2))):
        b = SplittingType(entries)
        assert bound_report(2, c1, F(-9, 2), b).splitting_type is b


def test_bound_report_radius_check_agrees_with_the_rational_radius():
    """The radius test in ints, n |e| > |c1| + n^2, rejects a type exactly
    when an entry is above the rational radius |c1|/n + n: for every
    normalized (n, c1) with n <= 6, on entries at the radius and one off it."""
    outcomes = set()
    for n in range(1, 7):
        for c1 in range(-n + 1, 1):
            radius = splitting_radius(n, c1)
            for size in range(floor(radius) - 1, ceil(radius) + 2):
                for entry in {size, -size}:
                    if n == 1 and entry != c1:
                        continue  # rank 1 has the one type (c1)
                    # the rest of c1 spread over the other n - 1 entries
                    q, m = divmod(c1 - entry, max(n - 1, 1))
                    b = SplittingType((entry, *[q + 1] * m, *[q] * (n - 1 - m)))
                    above = any(abs(e) > radius for e in b)
                    try:
                        bound_report(n, c1, F(-9, 2), b)
                    except InadmissibleParameterError as exc:
                        assert above and f"above the splitting radius {radius}" in str(exc), b
                    else:
                        assert not above, b
                    outcomes.add(above)
    assert outcomes == {True, False}


def test_p3_bounds_on_cached_types_equal_fresh_types():
    # enumerate twice so the second list is the memoized one, and evaluate
    # twice so the per-type terms are read back too
    for r in range(1, 8):
        for c1 in range(-r + 1, 1):
            enumerate_splitting_types(r, c1)
            ch = chern_to_character(ChernClasses(r, c1, 3 * r, c1 - r), 3)
            for b in enumerate_splitting_types(r, c1):
                p3_bounds(b, ch)
                report = p3_bounds(b, ch)
                fresh = SplittingType(b.entries)
                assert report == p3_bounds(fresh, ch)
                assert report_fields(report) == reference_report(r, c1, ch.ch2, fresh, False)


def test_default_reports_are_nonnegative():
    rng = random.Random(26)
    for _ in range(200):
        n = rng.randint(1, 4)
        c1 = rng.randint(-6, 6)
        ch2 = random_rational(rng)
        b = rng.choice(enumerate_splitting_types(n, c1, False))
        for report in (
            bound_report(n, c1, ch2),
            bound_report(n, c1, ch2, b=b),
        ):
            assert all(h >= 0 for h in report.h_bounds)
            assert report.euler_bound >= 0
            assert report.ch3_bound >= 0
            if report.q > 0:
                assert report.q_int >= 1


def test_worst_case_report_uses_radius_substitution():
    report = bound_report(2, -1, F(-9, 2))
    t = F(5, 2)
    assert report.q == t + 4 + F(9, 2) + 2 * t * t / 2
    assert report.h_bounds[1] == report.q * (F(9, 2) + 2 * t * t / 2)
    assert report.h_bounds[0] == F(2, 6) * (t + 3) ** 3


def test_bound_report_fields_equal_the_standalone_bounds():
    rng = random.Random(53)
    for _ in range(150):
        n, c1 = rng.randint(1, 6), rng.randint(-8, 8)
        ch2 = random_rational(rng)
        literal = rng.random() < 0.3
        b = rng.choice(enumerate_splitting_types(n, c1, False)) if rng.random() < 0.5 else None
        report = bound_report(n, c1, ch2, b=b, literal_mode=literal)
        assert report.euler_bound == euler_bound(n, c1, ch2, literal)
        assert report.ch3_bound == ch3_bound(n, c1, ch2, literal)


def reference_report(n, c1, ch2, b, literal):
    """The rational formulas, evaluated term by term in Fractions."""
    clamp = (lambda x: x) if literal else (lambda x: x if x > 0 else F(0))
    t = F(abs(c1), n) + n
    half_square = n * t * t / 2
    cube = F(n, 6) * (t + 3) ** 3
    euler = 2 * clamp(t + 4 - ch2 + half_square) * clamp(-ch2 + half_square) + cube
    ch3 = euler + 2 * abs(ch2) + F(11, 6) * abs(c1) + n
    if b is None:
        inv = -ch2 + half_square
        low = high = cube
    else:
        inv = -ch2 + F(b.square_sum, 2)
        low = F(sum(comb(x + 3, 3) for x in b if x >= 0))
        high = F(sum(comb(-x - 1, 3) for x in b if x <= -4))
    q = t + 4 + inv
    middle = clamp(q) * clamp(inv)
    return (n, c1, ch2, t, q, ceil(q), (low, middle, middle, high), euler, ch3, literal, b)


def report_fields(report):
    return (
        report.rank, report.c1, report.ch2, report.splitting_radius, report.q,
        report.q_int, report.h_bounds, report.euler_bound, report.ch3_bound,
        report.literal_mode, report.splitting_type,
    )


def assert_field_types(report):
    # an int where a Fraction belongs would change the bytes of a catalog
    assert type(report.rank) is int and type(report.c1) is int
    assert type(report.q_int) is int
    rationals = (report.ch2, report.splitting_radius, report.q, *report.h_bounds,
                 report.euler_bound, report.ch3_bound)
    assert all(type(x) is F for x in rationals)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(-40, 40),
    st.fractions(min_value=-2000, max_value=2000, max_denominator=60),
    st.lists(st.integers(-12, 12), min_size=7, max_size=7),
    st.booleans(),
    st.booleans(),
)
# positive ch_2 makes both factors negative: clamped to 0, literal product positive
@example(2, 0, F(10), [0] * 7, True, True)
@example(2, 0, F(10), [0] * 7, False, True)
# the h^1 factor negative while Q is positive: the literal product is negative
@example(1, 0, F(1), [0] * 7, True, True)
@example(1, 0, F(1), [0] * 7, True, False)
def test_bounds_match_the_rational_formulas(n, c1, ch2, entries, literal, typed):
    b = SplittingType(tuple(entries[:n])) if typed else None
    if b is not None:
        c1 = b.c1  # the splitting type fixes c_1
    expected = reference_report(n, c1, ch2, b, literal)
    assert euler_bound(n, c1, ch2, literal) == expected[7]
    assert ch3_bound(n, c1, ch2, literal) == expected[8]
    assert type(euler_bound(n, c1, ch2, literal)) is F
    assert type(ch3_bound(n, c1, ch2, literal)) is F
    reports = []
    if b is None or all(abs(entry) <= F(abs(c1), n) + n for entry in b):
        reports.append(bound_report(n, c1, ch2, b=b, literal_mode=literal))
    else:
        with pytest.raises(InadmissibleParameterError, match="above the splitting radius"):
            bound_report(n, c1, ch2, b=b, literal_mode=literal)
    if b is not None:
        # p3_bounds checks only the sum, so it takes entries outside the radius too
        ch = ChernCharacter(3, (F(n), F(c1), ch2, F(c1 - n, 6)))
        reports.append(p3_bounds(b, ch, literal_mode=literal))
    for report in reports:
        assert report_fields(report) == expected
        assert_field_types(report)


# ---------------------------------------------------------------------------
# the per-character cache


def test_p3_bounds_of_one_character_fill_one_cache_entry():
    types = enumerate_splitting_types(5, -2)
    # a ch_2 no other test uses, so the first call is a miss
    ch = ChernCharacter.of(3, 5, -2, F(-100003, 7), 0)
    before = bounds._character_terms.cache_info()
    reports = [p3_bounds(b, ch) for b in types]
    after = bounds._character_terms.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == len(types) - 1
    assert len({id(report.euler_bound) for report in reports}) == 1
    assert len({id(report.ch3_bound) for report in reports}) == 1
    for b, report in zip(types, reports):
        assert report_fields(report) == reference_report(5, -2, ch.ch2, b, False)
    # the bound sweep's order of calls: the c_3 interval, then every type of
    # the character; an unreduced key of the interval, such as (2k, 2) for
    # c_1 even, gives the right values but a second miss
    for r, c1 in ((5, -2), (4, -3)):
        types = enumerate_splitting_types(r, c1)
        before = bounds._character_terms.cache_info()
        c3_min, _ = enumerate_admissible_c3(r, c1, 100_003)  # a c_2 no other test uses
        ch = chern_to_character(ChernClasses(r, c1, 100_003, c3_min), 3)
        reports = [p3_bounds(b, ch) for b in types]
        after = bounds._character_terms.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == len(types)
        assert {report.ch3_bound for report in reports} == {ch3_bound(r, c1, ch.ch2)}


def test_literal_and_clamped_modes_do_not_share_an_entry():
    # positive ch_2 makes both worst-case factors negative, so only the
    # literal product is nonzero; each order of the modes is tried
    for ch2, modes in ((F(20), (False, True)), (F(21), (True, False))):
        values = [euler_bound(2, 0, ch2, mode) for mode in modes]
        assert values == [reference_report(2, 0, ch2, None, mode)[7] for mode in modes]
        assert values[0] != values[1]


def test_interleaved_characters_give_fresh_reports():
    characters = [(4, -1, F(-57, 4), False), (4, -3, F(-57, 4), False), (4, -1, F(-57, 4), True)]
    types = {c1: enumerate_splitting_types(4, c1) for c1 in (-1, -3)}
    for i in range(max(len(t) for t in types.values())):
        for n, c1, ch2, literal in characters:
            if i >= len(types[c1]):
                continue
            b = types[c1][i]
            ch = ChernCharacter.of(3, n, c1, ch2, 0)
            expected = reference_report(n, c1, ch2, b, literal)
            assert report_fields(p3_bounds(b, ch, literal)) == expected
            assert report_fields(bound_report(n, c1, ch2, b, literal)) == expected
            assert euler_bound(n, c1, ch2, literal) == expected[7]


@pytest.mark.parametrize(
    "call, args",
    [
        (bound_report, (2, -1.0, 0)),
        (euler_bound, (2, -1.0, 0)),
        (ch3_bound, (2, F(-1), 0)),
        (enumerate_admissible_c3, (2.0, -1, 3)),
        (enumerate_admissible_c3, (2, -1, 3.0)),
        (enumerate_admissible_c3, (2, True, 3)),
        (ch3_bound, (True, 0, 0)),
        (bound_report, (True, 0, 0)),
        (euler_bound, (2, False, 0)),
        (enumerate_admissible_c3, (2, -1, F(3))),
    ],
)
def test_bounds_reject_a_rank_or_chern_class_that_is_not_an_int(call, args):
    # the int of the same value is cached first, so a lookup by value
    # would answer silently
    call(*(int(x) for x in args))
    with pytest.raises(IntegralityError, match="must be an integer"):
        call(*args)


def test_the_benchmark_sweep_block_still_has_its_recorded_digest(monkeypatch):
    # the bound_sweep workload's own output check, on its full-size block 0;
    # perfbench/ is only read, so no bytecode is written there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import sweep

    queries = sweep.make_queries(sweep.RECORDED_SEED, 0, sweep.FULL)
    answers, _ = sweep.run_block(queries)
    assert sweep.digest(queries, answers) == sweep.RECORDED_BLOCK0[sweep.FULL]


# ---------------------------------------------------------------------------
# admissible c_3 enumeration and containment


def test_enumerate_admissible_c3_strictness():
    for (r, c1, c2) in [(2, -1, 5), (2, -1, 12), (1, 0, 0), (3, 2, 7), (2, 0, 4)]:
        c3_min, c3_max = enumerate_admissible_c3(r, c1, c2)
        bound = ch3_bound(r, c1, F(c1 * c1 - 2 * c2, 2))
        for inside in (c3_min, c3_max):
            assert abs(chern_to_character(ChernClasses(r, c1, c2, inside), 3).ch3) < bound
        assert abs(chern_to_character(ChernClasses(r, c1, c2, c3_min - 1), 3).ch3) >= bound
        assert abs(chern_to_character(ChernClasses(r, c1, c2, c3_max + 1), 3).ch3) >= bound


def test_enumerate_admissible_c3_hand_interval():
    assert enumerate_admissible_c3(2, -1, 5) == (-882, 873)


def test_enumerate_admissible_c3_equals_the_fraction_route():
    # the route `chowkit enumerate-c3` takes; ch_2 = (c_1^2 - 2 c_2)/2 runs
    # through odd, even, zero, negative and positive numerators
    for r, c1, c2 in itertools.product(range(1, 7), range(-7, 8), range(-30, 61)):
        ch2 = bounds._ch2_of_classes(c1, c2)
        expected = bounds._c3_interval(c1, c2, ch3_bound(r, c1, ch2))
        assert enumerate_admissible_c3(r, c1, c2) == expected, (r, c1, c2)


def test_enumerate_admissible_c3_contains_zero_for_trivial_data():
    c3_min, c3_max = enumerate_admissible_c3(1, 0, 0)
    assert c3_min <= 0 <= c3_max


def test_enumerate_admissible_c3_interval_is_short():
    rng = random.Random(27)
    for _ in range(50):
        r = rng.randint(1, 4)
        c1, c2 = rng.randint(-5, 5), rng.randint(-10, 10)
        c3_min, c3_max = enumerate_admissible_c3(r, c1, c2)
        bound = ch3_bound(r, c1, F(c1 * c1 - 2 * c2, 2))
        assert c3_max - c3_min < 4 * bound + 2


def test_ch3_bound_contains_all_resolved_sheaves():
    for c2 in range(5, 31):
        ch2 = F(1 - 2 * c2, 2)
        bound = ch3_bound(2, -1, ch2)
        for s in admissible_s(c2):
            ch3 = chern_to_character(ChernClasses(2, -1, c2, c3_oracle(c2, s)), 3).ch3
            assert abs(ch3) < bound, (c2, s)


def test_c3_interval_sharpness_for_rank_two():
    """How far the paper's c_3 interval reaches for r = 2, c_1 = -1: its top
    c3_max against Hartshorne's c_3 <= c_2^2 for stable rank-2 reflexive
    sheaves, and against the largest c_3 of the resolved family (s = 1).
    Both ratios fall towards 4 as c_2 grows."""
    ratios = {}
    for c2 in (5, 5000):
        c3_max = enumerate_admissible_c3(2, -1, c2)[1]
        largest = max(c3_oracle(c2, s) for s in admissible_s(c2))
        ratios[c2] = (F(c3_max, c2 * c2), F(c3_max, largest))
    assert ratios == {5: (F(873, 25), F(873, 19)),
                      5000: (F(50187699, 12500000), F(50187699, 12495002))}
    assert [round(float(r), 3) for r in (*ratios[5], *ratios[5000])] == [34.92, 45.947, 4.015, 4.017]

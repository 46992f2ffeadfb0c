"""Tests for splitting-type validation and enumeration."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chowkit.errors import InadmissibleParameterError
from chowkit.splitting import (
    SplittingType,
    enumerate_splitting_types,
    gap_ok,
    magnitude_ok,
    splitting_radius,
    validate,
)


def box_brute_force(r, c1, reflexive_gap):
    """Oracle: filter the full integer box with itertools, no recursion."""
    radius = Fraction(abs(c1), r) + r
    hi = int(radius)  # radius >= 0, so int() floors
    found = set()
    for combo in itertools.product(range(-hi, hi + 1), repeat=r):
        ordered = tuple(sorted(combo, reverse=True))
        if sum(ordered) != c1:
            continue
        if any(abs(b) > radius for b in ordered):
            continue
        if reflexive_gap and any(
            ordered[i] - ordered[i + 1] > 2 for i in range(r - 1)
        ):
            continue
        found.add(ordered)
    return sorted(found, reverse=True)


def test_validate_examples():
    assert validate((0, -1), 2, -1) is True
    assert validate((-1, 0), 2, -1) is False  # ordering
    assert validate((1, 1), 2, -1) is False  # sum
    assert validate((1, 1), 3, 2) is False  # length


def test_gap_examples():
    assert gap_ok((0, -1)) is True
    assert gap_ok((1, -2)) is False
    assert gap_ok((2, 0, -2)) is True


def test_magnitude_examples():
    assert magnitude_ok((0, -1), 2, -1) is True  # bound 5/2
    assert magnitude_ok((3, -4), 2, -1) is False  # 3 > 5/2
    assert magnitude_ok((0, 0), 2, 0) is True  # bound 2


def test_magnitude_requires_valid_type():
    with pytest.raises(InadmissibleParameterError):
        magnitude_ok((1, 1), 2, -1)


def test_magnitude_is_exact_at_the_boundary():
    assert splitting_radius(2, -1) == Fraction(5, 2)
    # radius 5/2: entry -2 is inside, -3 is out
    assert magnitude_ok((1, -2), 2, -1) is True
    assert magnitude_ok((2, -3), 2, -1) is False
    # radius exactly 2 for (r, c1) = (2, 0); equality is allowed
    assert magnitude_ok((2, -2), 2, 0) is True


def test_enumerate_examples():
    assert [t.entries for t in enumerate_splitting_types(2, -1, True)] == [(0, -1)]
    assert [t.entries for t in enumerate_splitting_types(2, 0, True)] == [
        (1, -1),
        (0, 0),
    ]
    assert [t.entries for t in enumerate_splitting_types(1, 5, True)] == [(5,)]


def test_enumerate_without_gap_keeps_wide_types():
    entries = [t.entries for t in enumerate_splitting_types(2, 0, False)]
    assert entries == [(2, -2), (1, -1), (0, 0)]


def test_enumerate_rejects_bad_rank():
    # errors are not cached: the second call raises too
    for _ in range(2):
        with pytest.raises(InadmissibleParameterError):
            enumerate_splitting_types(0, 1, True)


def test_enumerate_returns_a_new_list_on_every_call():
    first = enumerate_splitting_types(3, -1)
    expected = list(first)
    first.reverse()
    first.append(SplittingType.of(9, -5, -5))
    second = enumerate_splitting_types(3, -1)
    assert second == expected
    assert second is not enumerate_splitting_types(3, -1)


@pytest.mark.parametrize("reflexive_gap", [True, False])
def test_enumerate_matches_box_brute_force(reflexive_gap):
    for r in range(1, 5):
        for c1 in range(-4, 5):
            got = [t.entries for t in enumerate_splitting_types(r, c1, reflexive_gap)]
            assert got == box_brute_force(r, c1, reflexive_gap), (r, c1)


def test_enumerate_matches_combinations_oracle_and_order():
    # combinations_with_replacement over a descending range yields every
    # non-increasing tuple in lexicographically descending order; group
    # them by sum once per box
    for r in range(1, 8):
        by_box = {}
        for c1 in range(-3 * r, 3 * r + 1):
            hi = int(Fraction(abs(c1), r) + r)
            if hi not in by_box:
                by_box[hi] = {}
                for b in itertools.combinations_with_replacement(range(hi, -hi - 1, -1), r):
                    by_box[hi].setdefault(sum(b), []).append(b)
            box = by_box[hi].get(c1, [])
            gapped = [b for b in box if all(b[i] - b[i + 1] <= 2 for i in range(r - 1))]
            for reflexive_gap, expected in ((False, box), (True, gapped)):
                # the second pass reads the types the first one built
                for _ in range(2):
                    got = [t.entries for t in enumerate_splitting_types(r, c1, reflexive_gap)]
                    assert got == expected, (r, c1, reflexive_gap)
                    assert got == sorted(got, reverse=True)
                    assert len(set(got)) == len(got)


def test_enumerated_types_pass_all_checks():
    for r in range(1, 5):
        for c1 in range(-4, 5):
            for t in enumerate_splitting_types(r, c1, True):
                assert validate(t, r, c1)
                assert magnitude_ok(t, r, c1)
                assert gap_ok(t)


def test_enumerate_negation_symmetry():
    for r in range(1, 5):
        for c1 in range(-4, 5):
            for flag in (True, False):
                plus = enumerate_splitting_types(r, c1, flag)
                minus = enumerate_splitting_types(r, -c1, flag)
                negated = sorted(
                    (t.dual() for t in minus), key=lambda t: t.entries, reverse=True
                )
                assert plus == negated


def test_splitting_type_canonicalizes_and_exposes_accessors():
    t = SplittingType((-1, 2, 0))
    assert t.entries == (2, 0, -1)
    assert t.rank == 3
    assert t.c1 == 1
    assert t.b_max == 2
    assert t.b_min == -1
    assert t.square_sum == 5
    assert t.twisted(2).entries == (4, 2, 1)
    assert t.dual().entries == (1, 0, -2)
    assert str(t) == "(2,0,-1)"


def test_splitting_type_rejects_empty_and_non_integer():
    with pytest.raises(InadmissibleParameterError):
        SplittingType(())
    with pytest.raises(InadmissibleParameterError):
        SplittingType((1, Fraction(1, 2)))


def test_equal_multisets_are_one_type():
    assert SplittingType((1, 0, -1)) == SplittingType((-1, 1, 0))
    rng = random.Random(7)
    for _ in range(50):
        entries = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert SplittingType(tuple(entries)) == SplittingType(tuple(shuffled))


splitting_types = st.lists(st.integers(-20, 20), min_size=1, max_size=8).map(
    lambda entries: SplittingType(tuple(entries))
)


@given(splitting_types, st.integers(-30, 30))
def test_twist_and_dual_are_group_actions(b, k):
    assert b.twisted(k).twisted(-k) == b
    assert b.dual().dual() == b
    assert b.twisted(k).dual() == b.dual().twisted(-k)


@given(splitting_types, st.integers(-30, 30))
def test_square_sum_under_twist(b, k):
    assert b.twisted(k).square_sum == b.square_sum + 2 * k * b.c1 + b.rank * k * k

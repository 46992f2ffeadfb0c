"""Tests for splitting-type validation and enumeration."""

import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chowkit import splitting
from chowkit.errors import InadmissibleParameterError
from chowkit.splitting import (
    SplittingType,
    enumerate_splitting_types,
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


def test_enumerate_cache_is_typed():
    assert len(enumerate_splitting_types(2, 0)) == 2
    # a float rank finds no int rank's entry: it raises, as on a cold cache
    with pytest.raises(TypeError):
        enumerate_splitting_types(2.0, 0)


def _kept(types_a, types_b):
    """True when two calls returned the very same type objects (a cache hit)."""
    return len(types_a) == len(types_b) and all(a is b for a, b in zip(types_a, types_b))


def test_enumerate_cache_keeps_every_bound_sweep_pair(monkeypatch):
    cache = splitting._TypeCache(splitting._CACHE_TYPES)
    monkeypatch.setattr(splitting, "_cache", cache)
    # the (r, c1) pairs a bound_sweep block queries: r 2..6, c1 -r+1..0
    pairs = [(r, c1) for r in range(2, 7) for c1 in range(-r + 1, 1)]
    first = [enumerate_splitting_types(r, c1) for r, c1 in pairs]
    assert len(pairs) == 20
    assert cache.count == sum(len(types) for types in first) == 363
    for (r, c1), types in zip(pairs, first):
        assert _kept(enumerate_splitting_types(r, c1), types), (r, c1)
    assert cache.count == 363


def test_enumerate_cache_is_bounded_by_its_type_count(monkeypatch):
    cache = splitting._TypeCache(20)
    monkeypatch.setattr(splitting, "_cache", cache)
    a, b = enumerate_splitting_types(4, -1), enumerate_splitting_types(4, 0)
    assert (len(a), len(b), cache.count) == (6, 8, 14)
    # using (4, -1) again leaves (4, 0) the least recently used
    assert _kept(enumerate_splitting_types(4, -1), a)
    c = enumerate_splitting_types(3, 0)
    assert cache.count == 17
    enumerate_splitting_types(4, -2)  # 7 more types: 24 > 20 evicts (4, 0) only
    assert cache.count == 16
    assert _kept(enumerate_splitting_types(4, -1), a)
    assert _kept(enumerate_splitting_types(3, 0), c)
    # built again and kept, which evicts (4, -2), now the least recently used
    assert not _kept(enumerate_splitting_types(4, 0), b)
    assert cache.count == 17
    # an enumeration above the bound is returned whole, every time, but not kept
    before = cache.count
    wide = enumerate_splitting_types(5, 0, False)
    assert len(wide) == 141
    assert [t.entries for t in wide] == box_brute_force(5, 0, False)
    assert cache.count == before
    assert not _kept(enumerate_splitting_types(5, 0, False), wide)
    assert enumerate_splitting_types(5, 0, False) == wide


def test_enumerate_cache_under_threads(monkeypatch):
    # 13 types over these pairs against a bound of 5: threads keep evicting
    cache = splitting._TypeCache(5)
    monkeypatch.setattr(splitting, "_cache", cache)
    pairs = [(r, c1) for r in range(1, 4) for c1 in range(-r + 1, 1)]
    expected = {pair: splitting._build_types(*pair, True) for pair in pairs}
    results, problems = [], []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(3000):
                pair = rng.choice(pairs)
                results.append((pair, enumerate_splitting_types(*pair)))
        except Exception as exc:  # a thread's error would otherwise go unseen
            problems.append(exc)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert len(results) == 12000
    assert all(tuple(types) == expected[pair] for pair, types in results)
    assert cache.count == sum(len(types) for types in cache._kept.values()) <= 5


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
                assert all(a - b <= 2 for a, b in zip(t.entries, t.entries[1:]))


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

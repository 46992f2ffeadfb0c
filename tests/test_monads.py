"""Tests for charges, monad shapes, and partition types."""

import hashlib
import random
from fractions import Fraction

import pytest

from chowkit.catalog import CATALOG_KINDS
from chowkit.chow import ChernCharacter, character_to_chern, sub
from chowkit.errors import InadmissibleParameterError, IntegralityError, NotRealizableError
from chowkit.monads import (
    MonadShape,
    PartitionType,
    charge,
    is_normalized,
    monad_shape,
    partition_types,
)

from conftest import random_rational
from test_resolutions import reference_chern_character

F = Fraction


def distinct_partitions(n):
    """Oracle: all partitions of n, built by simple filtering of compositions."""
    if n == 0:
        return {()}
    out = set()
    for first in range(1, n + 1):
        for rest in distinct_partitions(n - first):
            out.add(tuple(sorted((first, *rest), reverse=True)))
    return out


def monad_character_oracle(shape):
    """Oracle: ch(middle) - ch(left) - ch(right), one line bundle at a time."""
    middle, left, right = (
        reference_chern_character(term, 2) for term in (shape.middle, shape.left, shape.right)
    )
    return sub(sub(middle, left), right)


def multiset_oracle(l):
    """Oracle: multisets of partitions with total l, via count vectors.

    Enumerates how many copies of each candidate partition appear, which is
    structurally different from the ordered descent in the implementation.
    """
    candidates = sorted(
        p for k in range(1, l + 1) for p in distinct_partitions(k) if p
    )
    results = set()

    def assign(index, remaining, chosen):
        if remaining == 0:
            results.add(tuple(sorted(chosen)))
            return
        if index == len(candidates):
            return
        piece = candidates[index]
        for copies in range(remaining // sum(piece) + 1):
            assign(index + 1, remaining - copies * sum(piece), chosen + [piece] * copies)

    assign(0, l, [])
    return results


# ---------------------------------------------------------------------------
# normalization and charge


def test_is_normalized_examples():
    assert is_normalized(2, 0) is True
    assert is_normalized(2, -1) is True
    assert is_normalized(2, -2) is False
    assert is_normalized(1, 0) is True
    assert is_normalized(3, 1) is False


def test_is_normalized_rejects_bad_rank():
    with pytest.raises(InadmissibleParameterError):
        is_normalized(0, 0)


def test_charge_hand_values():
    assert charge(2, 0, F(-5)) == 5
    assert charge(2, -1, F(-9, 2)) == 5
    assert charge(1, 0, F(0)) == 0


def test_charge_closed_form():
    rng = random.Random(41)
    for _ in range(200):
        r, d = rng.randint(1, 6), rng.randint(-6, 6)
        ch2 = random_rational(rng)
        assert charge(r, d, ch2) == -ch2 - F(d, 2)
        assert charge(r, 0, ch2) == -ch2


def test_charge_equals_c2_for_normalized_rank_two():
    rng = random.Random(42)
    for _ in range(100):
        for d in (0, -1):
            c2 = rng.randint(-10, 10)
            ch2 = F(d * d - 2 * c2, 2)
            classes = character_to_chern(ChernCharacter.of(2, 2, d, ch2))
            assert classes.c2 == c2
            assert charge(2, d, ch2) == c2


# ---------------------------------------------------------------------------
# monad shapes


def test_monad_shape_hand_values():
    shape = monad_shape(2, -1, F(-9, 2))
    assert (shape.v, shape.w, shape.u) == (4, 11, 5)
    assert (shape.left, shape.middle, shape.right) == (((-1, 4),), ((0, 11),), ((1, 5),))
    assert str(shape) == "O(-1)^4 -> O^11 -> O(1)^5"
    # 11 - 4 - 5 = 2, 0 + 4 - 5 = -1, 0 - 2 - 5/2 = -9/2
    assert monad_character_oracle(shape) == ChernCharacter.of(2, 2, -1, "-9/2")

    instanton = monad_shape(2, 0, F(-5))
    assert (instanton.v, instanton.w, instanton.u) == (5, 12, 5)

    degenerate = monad_shape(1, 0, F(0))
    assert (degenerate.v, degenerate.w, degenerate.u) == (0, 1, 0)
    assert (degenerate.left, degenerate.middle, degenerate.right) == ((), ((0, 1),), ())
    assert str(degenerate) == "0 -> O -> 0"


def test_monad_shape_identity_over_grid():
    for r in range(1, 6):
        for d in range(-r + 1, 1):
            for c in range(max(0, -d), 21):
                ch2 = -F(c) - F(d, 2)
                shape = monad_shape(r, d, ch2)
                assert (shape.v, shape.w, shape.u) == (d + c, r + d + 2 * c, c)
                assert shape.rank == r
                assert shape.degree == d
                assert monad_character_oracle(shape) == ChernCharacter.of(2, r, d, ch2)
                if d == 0:
                    assert (shape.v, shape.w, shape.u) == (c, r + 2 * c, c)


def test_monad_shape_rejects_negative_exponents():
    assert MonadShape(0, 0, 0).rank == 0
    for exponents in ((-1, 3, 1), (1, -1, 0), (0, 2, -2)):
        with pytest.raises(NotRealizableError, match="must be nonnegative"):
            MonadShape(*exponents)


def test_monad_shape_rejections():
    with pytest.raises(NotRealizableError):
        monad_shape(2, -2, F(0))  # not normalized
    with pytest.raises(NotRealizableError):
        monad_shape(2, 1, F(0))  # not normalized
    with pytest.raises(NotRealizableError):
        monad_shape(2, 0, F(1, 3))  # fractional charge
    with pytest.raises(NotRealizableError):
        monad_shape(2, 0, F(1))  # negative charge
    with pytest.raises(NotRealizableError):
        monad_shape(3, -2, F(0))  # charge 1 but left exponent d + c = -1


@pytest.mark.parametrize(
    "call, args",
    [
        (monad_shape, (2.0, 0, 0)),
        (monad_shape, (2, -1.0, F(-9, 2))),
        (monad_shape, (True, 0, 0)),
        (monad_shape, (2, False, 0)),
        (monad_shape, (F(2), 0, 0)),
        (charge, (2, -1.0, 0)),
        (charge, (True, 0, 0)),
        # is_normalized(True, 0) and (2.0, -1) used to answer True
        (is_normalized, (True, 0)),
        (is_normalized, (2.0, -1)),
        (is_normalized, (2, F(-1, 2))),
        (partition_types, (2.0,)),
        (partition_types, (True,)),
        (partition_types, (-1.0,)),
        (MonadShape, (1.5, 1, 0)),  # printed O(-1)^1.5 -> O -> 0, of rank -0.5
        (MonadShape, (True, 2, False)),
        (lambda *args: list(CATALOG_KINDS["monads"].generate(*args)), (2.0, range(0, 2))),
    ],
)
def test_family_paths_reject_a_rank_degree_or_length_that_is_not_an_int(call, args):
    # partition_types(True) used to answer for l = 1
    with pytest.raises(IntegralityError, match="must be an integer"):
        call(*args)


# ---------------------------------------------------------------------------
# partition types


def test_partition_type_canonicalization():
    ptype = PartitionType(((1, 2), (1,), (3, 1)))
    assert ptype.parts == ((3, 1), (2, 1), (1,))
    assert ptype.total == 8
    assert str(ptype) == "(3+1)|(2+1)|(1)"
    assert PartitionType(()).total == 0
    assert str(PartitionType(())) == "empty"


@pytest.mark.parametrize(
    "parts",
    [((0,),), ((),), ((True,),), ((1.5,),), (("1",),), ((2, 1.0),), ((1, "1"),)],
    ids=["zero", "empty", "bool", "float", "str", "int-float", "int-str"],
)
def test_partition_type_rejects_bad_parts(parts):
    # a bool would pass as the part 1 and a float as its value
    with pytest.raises(InadmissibleParameterError, match="must consist of positive integers"):
        PartitionType(parts)


@pytest.mark.parametrize("parts", [(1,), 5], ids=["ints", "int"])
def test_partition_type_rejects_parts_that_are_not_sequences(parts):
    # these used to end in a bare TypeError
    with pytest.raises(InadmissibleParameterError, match="must be a sequence of partitions"):
        PartitionType(parts)


def test_partition_type_of_an_iterator_is_the_type_of_its_tuple():
    # an iterator used to be read twice and give the empty type
    assert PartitionType(iter([(1,), (2, 1)])) == PartitionType(((2, 1), (1,)))
    assert PartitionType(iter([[1, 2]])).parts == ((2, 1),)


def test_partition_types_small_counts():
    assert [len(partition_types(l)) for l in range(0, 5)] == [1, 1, 3, 6, 14]


def test_partition_types_l2_exact_set():
    got = {p.parts for p in partition_types(2)}
    assert got == {((2,),), ((1, 1),), ((1,), (1,))}


def test_partition_types_match_multiset_oracle():
    for l in range(0, 7):
        # compare as plain sorted multisets; the two sides canonicalize
        # their part order differently
        got = {tuple(sorted(p.parts)) for p in partition_types(l)}
        expected = multiset_oracle(l) if l > 0 else {()}
        assert got == expected, l
        assert len(partition_types(l)) == len(expected)


def test_partition_types_order():
    """The output order is descending (size, entries), part by part."""

    def key(parts):
        return [(sum(p), p) for p in parts]

    for l in range(0, 11):
        expected = multiset_oracle(l) if l > 0 else {()}
        canonical = [sorted(parts, key=lambda p: (sum(p), p), reverse=True) for parts in expected]
        ordered = [tuple(parts) for parts in sorted(canonical, key=key, reverse=True)]
        assert [p.parts for p in partition_types(l)] == ordered, l


def test_partition_types_agree_with_checked_construction():
    """``partition_types`` stores its types without ``PartitionType``'s
    checks: each is the type that the checked constructor builds from its
    parts, with the same parts, and the types come in the order that
    ``test_partition_types_order`` pins, strictly descending."""

    def key(parts):
        return [(sum(p), p) for p in parts]

    for l in range(0, 13):
        types = partition_types(l)
        for ptype in types:
            checked = PartitionType(ptype.parts)
            assert checked == ptype and checked.parts == ptype.parts
        keys = [key(ptype.parts) for ptype in types]
        assert all(a > b for a, b in zip(keys, keys[1:])), l


# sha256 of "\n".join(map(str, partition_types(l))), recorded from the
# checked construction of every type
PARTITION_TYPE_DIGESTS = [
    (14, "ecaa7244983bf024983b85168f1abf991c10708b79b1361cfa5ddba41b0fdab6"),
    (16, "4eb66fa8fa6c1bf1007809e496f6f1c01e8b440f4fe505979d5281f4d3623d9d"),
    (18, "d2ff3b3b9a42b8df2ac48f64a11dfc45f0e59afade8870d6f0b58707636844c7"),
]


@pytest.mark.parametrize("l, digest", PARTITION_TYPE_DIGESTS,
                         ids=[str(l) for l, _ in PARTITION_TYPE_DIGESTS])
def test_partition_types_keep_their_digest(l, digest):
    """The type lists keep their text at l = 14, 16 and 18.  l = 18 (101,887
    types) costs about 0.2 s to generate and 0.35 s to write as text."""
    text = "\n".join(map(str, partition_types(l)))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def test_partition_types_are_deterministic_and_unique():
    for l in range(0, 6):
        first = partition_types(l)
        second = partition_types(l)
        assert first == second
        assert len(set(first)) == len(first)
        assert all(p.total == l for p in first)


def test_partition_types_rejects_negative():
    with pytest.raises(InadmissibleParameterError):
        partition_types(-1)


def test_aut_dimension():
    assert PartitionType(((1,), (1,), (1,))).aut_dimension() == 3
    assert PartitionType(((1, 1), (1,))).aut_dimension() == 5
    assert PartitionType(((2,),)).aut_dimension() is None
    assert PartitionType(()).aut_dimension() == 0

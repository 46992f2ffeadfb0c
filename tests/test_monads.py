"""Tests for monad shapes, kernel presentations, and partition-type strata."""

import random
from fractions import Fraction

import pytest

from chowkit import monads
from chowkit.chow import ChernCharacter, character_to_chern
from chowkit.errors import InadmissibleParameterError, NotRealizableError
from chowkit.monads import (
    MonadShape,
    PartitionType,
    StratumReport,
    charge,
    dual_complex_shape,
    is_normalized,
    kernel_presentation,
    monad_shape,
    partition_types,
    stratum_dims,
)
from chowkit.resolutions import ShapeDescriptor

from conftest import random_rational

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
    assert shape.left == ShapeDescriptor.power(-1, 4)
    assert shape.middle == ShapeDescriptor.power(0, 11)
    assert shape.right == ShapeDescriptor.power(1, 5)
    # 11 - 4 - 5 = 2, 0 + 4 - 5 = -1, 0 - 2 - 5/2 = -9/2
    assert shape.chern_character() == ChernCharacter.of(2, 2, -1, "-9/2")

    instanton = monad_shape(2, 0, F(-5))
    assert (instanton.v, instanton.w, instanton.u) == (5, 12, 5)

    degenerate = monad_shape(1, 0, F(0))
    assert (degenerate.v, degenerate.w, degenerate.u) == (0, 1, 0)
    assert degenerate.left.rank == 0


@pytest.mark.parametrize("offset", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0), (1, 2, 1)])
def test_monad_shape_recheck_rejects_wrong_exponents(monkeypatch, offset):
    # (1, 2, 1) keeps rank and degree and moves only ch_2 by -1
    def shifted(v, w, u):
        return MonadShape(v + offset[0], w + offset[1], u + offset[2])

    monkeypatch.setattr(monads, "MonadShape", shifted)
    with pytest.raises(NotRealizableError, match="do not reproduce"):
        monad_shape(2, -1, F(-9, 2))


def test_monad_shape_identity_over_grid():
    for r in range(1, 6):
        for d in range(-r + 1, 1):
            for c in range(max(0, -d), 21):
                ch2 = -F(c) - F(d, 2)
                shape = monad_shape(r, d, ch2)
                assert (shape.v, shape.w, shape.u) == (d + c, r + d + 2 * c, c)
                assert shape.rank == r
                assert shape.degree == d
                assert shape.chern_character() == ChernCharacter.of(2, r, d, ch2)
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


def test_dual_complex_shape():
    shape = monad_shape(2, -1, F(-9, 2))
    swapped = dual_complex_shape(shape)
    assert (swapped.v, swapped.w, swapped.u) == (5, 11, 4)
    assert dual_complex_shape(swapped) == shape
    instanton = monad_shape(2, 0, F(-3))
    assert dual_complex_shape(instanton) == instanton


# ---------------------------------------------------------------------------
# kernel presentations


def test_kernel_presentation_hand_values():
    pres = kernel_presentation(2, 1)
    assert pres.surjection_source == ShapeDescriptor.power(0, 3)
    assert pres.surjection_target == ShapeDescriptor.power(1, 1)
    assert pres.resolution_sub == ShapeDescriptor.power(-1, 1)
    assert pres.hom_dimension == 9

    assert kernel_presentation(3, 2).hom_dimension == 30


def test_kernel_presentation_formula():
    for r in range(1, 6):
        for c in range(0, 10):
            assert kernel_presentation(r, c).hom_dimension == 3 * c * (r + c)


def test_kernel_presentation_trivial_case():
    pres = kernel_presentation(2, 0)
    assert pres.surjection_target.rank == 0
    assert pres.resolution_sub.rank == 0
    assert pres.surjection_source == ShapeDescriptor.power(0, 2)
    assert pres.hom_dimension == 0


def test_kernel_presentation_rejections():
    with pytest.raises(InadmissibleParameterError):
        kernel_presentation(2, -1)
    with pytest.raises(InadmissibleParameterError):
        kernel_presentation(0, 1)


# ---------------------------------------------------------------------------
# partition types


def test_partition_type_canonicalization():
    ptype = PartitionType(((1, 2), (1,), (3, 1)))
    assert ptype.parts == ((3, 1), (2, 1), (1,))
    assert ptype.total == 8
    assert str(ptype) == "(3+1)|(2+1)|(1)"
    assert PartitionType(()).total == 0
    assert str(PartitionType(())) == "empty"


def test_partition_type_rejects_bad_parts():
    with pytest.raises(InadmissibleParameterError):
        PartitionType(((0,),))
    with pytest.raises(InadmissibleParameterError):
        PartitionType(((),))


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


# ---------------------------------------------------------------------------
# stratum dimensions


def test_stratum_dims_hand_values():
    report = stratum_dims(2, 1, PartitionType(((1,), (1,), (1,))))
    assert report == StratumReport(hom_dim=9, proj_dim=8, aut_dims=(1, 9, 3))
    assert report.group_dim == 13


def test_stratum_dims_empty_quotient():
    report = stratum_dims(2, 0, PartitionType(()))
    assert report.hom_dim == 0
    assert report.proj_dim is None
    assert report.aut_dims == (0, 4, 0)


def test_stratum_dims_unknown_aut():
    report = stratum_dims(2, 1, PartitionType(((2,),)))
    assert report.aut_dims[2] is None
    assert report.group_dim is None
    assert report.hom_dim == 6


def test_stratum_dims_formula():
    rng = random.Random(43)
    for _ in range(50):
        r, c = rng.randint(1, 5), rng.randint(0, 5)
        l = rng.randint(0, 5)
        for ptype in partition_types(l)[:3]:
            report = stratum_dims(r, c, ptype)
            assert report.hom_dim == l * (r + c)
            assert report.aut_dims[0] == c * c
            assert report.aut_dims[1] == (r + c) ** 2


def test_stratum_dims_rejections():
    with pytest.raises(InadmissibleParameterError):
        stratum_dims(0, 1, PartitionType(()))
    with pytest.raises(InadmissibleParameterError):
        stratum_dims(2, -1, PartitionType(()))

"""Tests for resolution-shape enumeration and presentation dimensions."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from chowkit import chow
from chowkit.chow import ChernCharacter, ChernClasses, chern_to_character, sub
from chowkit.errors import InadmissibleParameterError, NotRealizableError
from chowkit.resolutions import (
    PresentationReport,
    ShapeDescriptor,
    admissible_s,
    c3_of,
    hom_dim,
    max_admissible_s,
    presentation_report,
    resolution_shapes,
    verify_resolution_chern,
)


def hom_dim_oracle(a, b, n):
    """Oracle: expand both shapes into single line bundles and count sections."""
    total = 0
    for ta, ea in a.summands:
        for tb, eb in b.summands:
            degree = tb - ta
            sections = math.comb(degree + n, n) if degree >= 0 else 0
            total += ea * eb * sections
    return total


def admissible_oracle(c2):
    if c2 <= 4:
        return []
    return [s for s in range(1, c2 + 5) if (2 * s + 1) ** 2 <= 4 * c2 - 7]


# ---------------------------------------------------------------------------
# shape descriptors


def test_shape_canonicalization():
    shape = ShapeDescriptor(((-1, 1), (-2, 1), (-2, 1), (-4, 1), (0, 0)))
    assert shape.summands == ((-1, 1), (-2, 2), (-4, 1))
    assert shape.rank == 4
    assert dict(shape.summands)[-2] == 2
    assert 7 not in dict(shape.summands)
    assert str(shape) == "O(-1) + O(-2)^2 + O(-4)"
    assert str(ShapeDescriptor(())) == "0"


def test_shape_rejects_negative_exponent():
    with pytest.raises(NotRealizableError):
        ShapeDescriptor(((0, -1),))


def test_shape_chern_character_is_additive():
    a = ShapeDescriptor.line_bundles(-3, -5)
    b = ShapeDescriptor.power(1, 2)
    combined = a + b
    assert combined.summands == ((1, 2), (-3, 1), (-5, 1))
    lhs = combined.chern_character(3)
    rhs = ChernCharacter(
        3,
        tuple(
            x + y
            for x, y in zip(
                a.chern_character(3).components, b.chern_character(3).components
            )
        ),
    )
    assert lhs == rhs


def reference_chern_character(shape, n):
    """The per-summand sum: e copies of ch(O(t)) per summand, added with chow.add."""
    total = ChernCharacter(n, (0,) * (n + 1))
    for t, e in shape.summands:
        for _ in range(e):
            total = chow.add(total, chow.ch_line_bundle(n, t))
    return total


@given(
    n=st.sampled_from((2, 3)),
    summands=st.lists(
        st.tuples(st.integers(-60, 60), st.integers(0, 6)), max_size=6
    ),
)
def test_shape_chern_character_matches_per_summand_sum(n, summands):
    shape = ShapeDescriptor(tuple(summands))
    assert shape.chern_character(n) == reference_chern_character(shape, n)


# ---------------------------------------------------------------------------
# admissible parameters


def test_admissible_s_examples():
    assert admissible_s(5) == [1]
    assert admissible_s(4) == []
    assert admissible_s(10) == [1, 2]
    assert admissible_s(8) == [1, 2]  # (2*2+1)^2 = 25 = 4*8-7, boundary included


def test_admissible_s_matches_oracle():
    for c2 in range(-3, 200):
        assert admissible_s(c2) == admissible_oracle(c2), c2


def test_admissible_s_agrees_with_float_evaluation_away_from_boundary():
    # the integer rule must match floor((-1 + sqrt(4 c2 - 7))/2) whenever the
    # float estimate is clearly off the integer boundary
    for c2 in range(5, 10**6):
        float_value = (-1 + math.sqrt(4 * c2 - 7)) / 2
        if float_value < 1 or abs(float_value - round(float_value)) < 1e-9:
            continue
        assert max_admissible_s(c2) == math.floor(float_value), c2


def test_c3_of_values():
    assert c3_of(5, 1) == 19
    assert c3_of(10, 1) == 84
    assert c3_of(10, 2) == 72


def test_c3_of_rejects_inadmissible():
    with pytest.raises(InadmissibleParameterError):
        c3_of(5, 2)
    with pytest.raises(InadmissibleParameterError):
        c3_of(4, 1)
    with pytest.raises(InadmissibleParameterError):
        c3_of(10, 0)


def test_c3_positive_on_range():
    for c2 in range(5, 31):
        for s in admissible_s(c2):
            assert c3_of(c2, s) > 0


# ---------------------------------------------------------------------------
# resolution shapes and Chern consistency


def test_resolution_shapes_hand_values():
    r_minus1, r_0 = resolution_shapes(5, 1)
    assert r_minus1 == ShapeDescriptor.line_bundles(-3, -5)
    assert r_0 == ShapeDescriptor.line_bundles(-2, -1, -2, -4)

    r_minus1, r_0 = resolution_shapes(10, 2)
    assert r_minus1 == ShapeDescriptor.line_bundles(-4, -9)
    assert r_0 == ShapeDescriptor.line_bundles(-3, -1, -2, -8)


def test_resolution_rank_difference_is_two():
    for c2 in range(5, 31):
        for s in admissible_s(c2):
            r_minus1, r_0 = resolution_shapes(c2, s)
            assert r_0.rank - r_minus1.rank == 2


def test_verify_resolution_chern_specific_instance():
    r_minus1, r_0 = resolution_shapes(5, 1)
    resolved = sub(r_0.chern_character(3), r_minus1.chern_character(3))
    assert resolved == ChernCharacter.of(3, 2, -1, "-9/2", "71/6")
    assert chern_to_character(ChernClasses(2, -1, 5, 19), 3) == resolved
    assert verify_resolution_chern(presentation_report(5, 1))
    assert verify_resolution_chern(presentation_report(10, 2))


def test_verify_resolution_chern_detects_perturbation():
    for c2, s in [(5, 1), (10, 2), (20, 3)]:
        report = presentation_report(c2, s)
        assert verify_resolution_chern(replace(report, c3=report.c3 + 1)) is False


def test_verify_resolution_chern_rejects_every_nearby_c3():
    for c2 in range(5, 61):
        for s in admissible_s(c2):
            report = presentation_report(c2, s)
            assert verify_resolution_chern(report) is True
            for k in (-2, -1, 1, 2):
                perturbed = replace(report, c3=report.c3 + k)
                assert verify_resolution_chern(perturbed) is False, (c2, s, k)


def test_verify_resolution_chern_full_range():
    for c2 in range(5, 31):
        for s in admissible_s(c2):
            assert verify_resolution_chern(presentation_report(c2, s)), (c2, s)


# ---------------------------------------------------------------------------
# Hom dimensions and the presentation report


def test_hom_dim_hand_values():
    assert hom_dim(ShapeDescriptor.line_bundles(-1), ShapeDescriptor.line_bundles(0), 2) == 3
    assert hom_dim(ShapeDescriptor.line_bundles(0), ShapeDescriptor.line_bundles(0), 3) == 1
    r_minus1, r_0 = resolution_shapes(5, 1)
    assert hom_dim(r_minus1, r_0, 3) == 97


def test_hom_dim_matches_oracle():
    rng = random.Random(31)
    for _ in range(100):
        a = ShapeDescriptor(
            tuple((rng.randint(-6, 6), rng.randint(0, 3)) for _ in range(3))
        )
        b = ShapeDescriptor(
            tuple((rng.randint(-6, 6), rng.randint(0, 3)) for _ in range(3))
        )
        for n in (2, 3):
            assert hom_dim(a, b, n) == hom_dim_oracle(a, b, n)


def test_hom_dim_additive_under_concatenation():
    rng = random.Random(32)
    for _ in range(100):
        shapes = [
            ShapeDescriptor(
                tuple((rng.randint(-5, 5), rng.randint(0, 2)) for _ in range(2))
            )
            for _ in range(3)
        ]
        a, b, c = shapes
        n = rng.choice((2, 3))
        assert hom_dim(a + b, c, n) == hom_dim(a, c, n) + hom_dim(b, c, n)
        assert hom_dim(a, b + c, n) == hom_dim(a, b, n) + hom_dim(a, c, n)


def test_presentation_report_hand_values():
    assert presentation_report(5, 1) == PresentationReport(
        c2=5,
        s=1,
        c3=19,
        r_minus1=ShapeDescriptor.line_bundles(-3, -5),
        r0=ShapeDescriptor.line_bundles(-2, -1, -2, -4),
        dim_hom=97,
        dim_pv=96,
        dim_g=66,
    )


def test_presentation_report_is_the_resolution():
    for c2 in range(5, 61):
        for s in admissible_s(c2):
            report = presentation_report(c2, s)
            assert (report.c2, report.s, report.c3) == (c2, s, c3_of(c2, s))
            assert (report.r_minus1, report.r0) == resolution_shapes(c2, s)


def test_presentation_report_matches_oracle():
    for c2 in range(5, 31):
        for s in admissible_s(c2):
            r_minus1, r_0 = resolution_shapes(c2, s)
            report = presentation_report(c2, s)
            assert report.dim_hom == hom_dim_oracle(r_minus1, r_0, 3)
            assert report.dim_pv == report.dim_hom - 1
            assert report.dim_g == hom_dim_oracle(
                r_minus1, r_minus1, 3
            ) + hom_dim_oracle(r_0, r_0, 3)
            assert report.dim_g >= 2  # identity endomorphisms at least

"""Tests for resolution-shape enumeration and presentation dimensions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chowkit import chow
from chowkit.chow import ChernCharacter, ChernClasses, chern_to_character, sub
from chowkit.errors import InadmissibleParameterError, IntegralityError
from chowkit.resolutions import (
    PresentationReport,
    _scaled_character,
    admissible_s,
    format_term,
    max_admissible_s,
    presentation_report,
    resolution_shapes,
    verify_resolution_chern,
)

from conftest import c3_oracle


def hom_dim_oracle(a, b, n):
    """Oracle: expand both terms into single line bundles and count sections."""
    total = 0
    for ta, ea in a:
        for tb, eb in b:
            degree = tb - ta
            sections = math.comb(degree + n, n) if degree >= 0 else 0
            total += ea * eb * sections
    return total


def admissible_oracle(c2):
    if c2 <= 4:
        return []
    return [s for s in range(1, c2 + 5) if (2 * s + 1) ** 2 <= 4 * c2 - 7]


def canonical_oracle(summands):
    """Oracle: the canonical term of any summands, merged through a dict and sorted.

    Equal twists merge, zero exponents drop out, and twists go strictly
    descending.
    """
    merged = {}
    for t, e in summands:
        merged[t] = merged.get(t, 0) + e
    return tuple((t, e) for t, e in sorted(merged.items(), reverse=True) if e > 0)


# ---------------------------------------------------------------------------
# split terms


def test_format_term():
    assert format_term(((-1, 1), (-2, 2), (-4, 1))) == "O(-1) + O(-2)^2 + O(-4)"
    assert format_term(((1, 1), (0, 4))) == "O(1) + O^4"
    assert format_term(()) == "0"


def test_scaled_character_is_additive():
    a, b = ((-3, 1), (-5, 1)), ((1, 2),)
    rhs = tuple(x + y for x, y in zip(_scaled_character(a, 3), _scaled_character(b, 3)))
    assert _scaled_character(a + b, 3) == rhs


def reference_chern_character(term, n):
    """The per-summand sum: e copies of ch(O(t)) per summand, added with chow.add."""
    total = ChernCharacter(n, (0,) * (n + 1))
    for t, e in term:
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
    # raw summands: repeated twists and zero exponents included
    reference = reference_chern_character(summands, n)
    assert _scaled_character(summands, n) == tuple(
        math.factorial(n) * x for x in reference.components
    )


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
    for c2, s, c3 in [(5, 1, 19), (10, 1, 84), (10, 2, 72)]:
        assert presentation_report(c2, s).c3 == c3_oracle(c2, s) == c3


def test_c3_of_rejects_inadmissible():
    with pytest.raises(InadmissibleParameterError):
        presentation_report(5, 2)
    with pytest.raises(InadmissibleParameterError):
        presentation_report(4, 1)
    with pytest.raises(InadmissibleParameterError):
        presentation_report(10, 0)


@pytest.mark.parametrize(
    "call, args",
    [
        (presentation_report, (6, True)),
        (presentation_report, (5.0, 1)),
        (presentation_report, (6, 1.0)),
        (presentation_report, (Fraction(6), 1)),
        (presentation_report, (5.0, 0)),
        (resolution_shapes, (True, 1)),
        (admissible_s, (10.0,)),
        (max_admissible_s, (False,)),
    ],
)
def test_family_paths_reject_a_c2_or_s_that_is_not_an_int(call, args):
    # a bool s would pass silently through the closed-form dimensions
    with pytest.raises(IntegralityError, match="must be an integer"):
        call(*args)


def test_c3_positive_on_range():
    for c2 in range(5, 31):
        for s in admissible_s(c2):
            assert presentation_report(c2, s).c3 > 0


# ---------------------------------------------------------------------------
# resolution shapes and Chern consistency


def test_resolution_shapes_hand_values():
    r_minus1, r_0 = resolution_shapes(5, 1)
    assert r_minus1 == ((-3, 1), (-5, 1))
    assert r_0 == ((-1, 1), (-2, 2), (-4, 1))

    r_minus1, r_0 = resolution_shapes(10, 2)
    assert r_minus1 == ((-4, 1), (-9, 1))
    assert r_0 == ((-1, 1), (-2, 1), (-3, 1), (-8, 1))


def test_resolution_shapes_match_canonical_oracle():
    # the closed forms against the paper's summands, merged and sorted
    for c2 in range(5, 401):
        for s in admissible_s(c2):
            r_minus1 = canonical_oracle([(-s - 2, 1), (s - 1 - c2, 1)])
            r_0 = canonical_oracle([(-s - 1, 1), (-1, 1), (-2, 1), (s - c2, 1)])
            assert resolution_shapes(c2, s) == (r_minus1, r_0), (c2, s)


def test_resolution_rank_difference_is_two():
    for c2 in range(5, 31):
        for s in admissible_s(c2):
            r_minus1, r_0 = resolution_shapes(c2, s)
            assert sum(e for _, e in r_0) - sum(e for _, e in r_minus1) == 2


def test_verify_resolution_chern_specific_instance():
    r_minus1, r_0 = resolution_shapes(5, 1)
    resolved = sub(reference_chern_character(r_0, 3), reference_chern_character(r_minus1, 3))
    assert resolved == ChernCharacter.of(3, 2, -1, "-9/2", "71/6")
    assert chern_to_character(ChernClasses(2, -1, 5, 19), 3) == resolved
    assert verify_resolution_chern(presentation_report(5, 1))
    assert verify_resolution_chern(presentation_report(10, 2))


def test_verify_resolution_chern_detects_perturbation():
    for c2, s in [(5, 1), (10, 2), (20, 3)]:
        report = presentation_report(c2, s)
        assert verify_resolution_chern(report._replace(c3=report.c3 + 1)) is False


def test_verify_resolution_chern_rejects_every_nearby_c3():
    for c2 in range(5, 61):
        for s in admissible_s(c2):
            report = presentation_report(c2, s)
            assert verify_resolution_chern(report) is True
            for k in (-2, -1, 1, 2):
                perturbed = report._replace(c3=report.c3 + k)
                assert verify_resolution_chern(perturbed) is False, (c2, s, k)


def test_verify_resolution_chern_full_range():
    for c2 in range(5, 31):
        for s in admissible_s(c2):
            assert verify_resolution_chern(presentation_report(c2, s)), (c2, s)


# ---------------------------------------------------------------------------
# Hom dimensions and the presentation report


def test_hom_dim_hand_values():
    # the oracle the closed forms are compared with, on hand values
    assert hom_dim_oracle(((-1, 1),), ((0, 1),), 2) == 3
    assert hom_dim_oracle(((0, 1),), ((0, 1),), 3) == 1
    assert hom_dim_oracle(((0, 1),), ((-1, 1),), 3) == 0
    r_minus1, r_0 = resolution_shapes(5, 1)
    assert hom_dim_oracle(r_minus1, r_0, 3) == 97


def test_presentation_report_hand_values():
    assert presentation_report(5, 1) == PresentationReport(
        c2=5,
        s=1,
        c3=19,
        r_minus1=((-3, 1), (-5, 1)),
        r0=((-1, 1), (-2, 2), (-4, 1)),
        dim_hom=97,
        dim_pv=96,
        dim_g=66,
    )


def test_presentation_report_is_the_resolution():
    for c2 in range(5, 61):
        for s in admissible_s(c2):
            report = presentation_report(c2, s)
            assert (report.c2, report.s, report.c3) == (c2, s, c3_oracle(c2, s))
            assert (report.r_minus1, report.r0) == resolution_shapes(c2, s)


def test_presentation_report_matches_oracle():
    # every admissible pair up to the benchmark's c2 = 200: the closed-form
    # dimensions against the section count of every summand pair
    for c2 in range(5, 201):
        for s in admissible_s(c2):
            r_minus1, r_0 = resolution_shapes(c2, s)
            report = presentation_report(c2, s)
            assert report.dim_hom == hom_dim_oracle(r_minus1, r_0, 3)
            assert report.dim_pv == report.dim_hom - 1
            assert report.dim_g == hom_dim_oracle(
                r_minus1, r_minus1, 3
            ) + hom_dim_oracle(r_0, r_0, 3)
            assert report.dim_g >= 2  # identity endomorphisms at least

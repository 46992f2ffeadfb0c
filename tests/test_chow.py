"""Tests for the exact Chern-character calculus."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from chowkit.chow import (
    ChernCharacter,
    ChernClasses,
    as_rational,
    ch_line_bundle,
    character_to_chern,
    chern_to_character,
    dual,
    euler_characteristic,
    mul,
    parse_rational,
    pushforward_from_hyperplane,
    rational_str,
    restrict_to_hyperplane,
    todd,
    twist,
)
from chowkit.errors import (
    DimensionMismatchError,
    IntegralityError,
    UnsupportedDimensionError,
)

from conftest import random_character

F = Fraction


def naive_product(a, b, n):
    """Oracle: truncated polynomial product, written independently of mul."""
    out = [F(0)] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= n:
                out[i + j] += x * y
    return tuple(out)


# ---------------------------------------------------------------------------
# Todd classes and line bundles


def test_todd_p2_components():
    assert todd(2).components == (F(1), F(3, 2), F(1))


def test_todd_p3_components():
    assert todd(3).components == (F(1), F(2), F(11, 6), F(1))


@pytest.mark.parametrize("bad_dim", [0, 1, 4, -2])
def test_todd_unsupported_dimension(bad_dim):
    with pytest.raises(UnsupportedDimensionError):
        todd(bad_dim)


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (3, 0, (F(1), F(0), F(0), F(0))),
        (3, 2, (F(1), F(2), F(2), F(4, 3))),
        (2, -1, (F(1), F(-1), F(1, 2))),
    ],
)
def test_line_bundle_components(n, k, expected):
    assert ch_line_bundle(n, k).components == expected


def test_line_bundle_components_are_powers_over_factorials():
    for n in (2, 3):
        for k in range(-6, 7):
            comps = ch_line_bundle(n, k).components
            for i in range(n + 1):
                assert comps[i] == F(k**i, math.factorial(i))


# ---------------------------------------------------------------------------
# products, twists, duals


def test_mul_identity():
    one = ch_line_bundle(3, 0)
    x = ChernCharacter.of(3, 2, -1, "-9/2", "71/6")
    assert mul(one, x) == x
    assert mul(x, one) == x


def test_mul_inverse_line_bundles():
    assert mul(ch_line_bundle(3, 1), ch_line_bundle(3, -1)) == ch_line_bundle(3, 0)


def test_mul_hand_convolution():
    # ch2' = -5 - 0 + 2 * (1/2) = -4
    got = mul(ChernCharacter.of(2, 2, 0, -5), ch_line_bundle(2, -1))
    assert got == ChernCharacter.of(2, 2, -2, -4)


def test_mul_matches_naive_convolution():
    rng = random.Random(101)
    for _ in range(200):
        dim = rng.choice((2, 3))
        a, b = random_character(rng, dim), random_character(rng, dim)
        assert mul(a, b).components == naive_product(a.components, b.components, dim)


def test_mul_commutative_associative():
    rng = random.Random(102)
    for _ in range(100):
        dim = rng.choice((2, 3))
        a, b, c = (random_character(rng, dim) for _ in range(3))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mul(ch_line_bundle(2, 1), ch_line_bundle(3, 1))


def test_line_bundle_group_law():
    for n in (2, 3):
        for a in range(-5, 6):
            for b in range(-5, 6):
                lhs = mul(ch_line_bundle(n, a), ch_line_bundle(n, b))
                assert lhs == ch_line_bundle(n, a + b)


def test_twist_zero_and_group_law():
    rng = random.Random(103)
    for _ in range(50):
        x = random_character(rng, rng.choice((2, 3)))
        assert twist(x, 0) == x
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        assert twist(twist(x, a), b) == twist(x, a + b)
        assert twist(twist(x, a), -a) == x


def test_twist_hand_value():
    assert twist(ChernCharacter.of(2, 2, 0, -5), -1) == ChernCharacter.of(2, 2, -2, -4)


def test_dual_sign_flip():
    x = ChernCharacter.of(3, 1, 1, "1/2", "1/6")
    assert dual(x) == ChernCharacter.of(3, 1, -1, "1/2", "-1/6")
    y = ChernCharacter.of(3, 2, -1, "-9/2", "71/6")
    assert dual(y) == ChernCharacter.of(3, 2, 1, "-9/2", "-71/6")


def test_dual_involution():
    rng = random.Random(104)
    for _ in range(50):
        x = random_character(rng, rng.choice((2, 3)))
        assert dual(dual(x)) == x


# ---------------------------------------------------------------------------
# Euler characteristics


def test_euler_line_bundle_counts_match_binomials():
    for k in range(-12, 13):
        assert euler_characteristic(ch_line_bundle(3, k)) == F(
            (k + 1) * (k + 2) * (k + 3), 6
        )
        assert euler_characteristic(ch_line_bundle(2, k)) == F((k + 1) * (k + 2), 2)
    # positive twists agree with the monomial count C(k+n, n)
    for k in range(0, 13):
        assert euler_characteristic(ch_line_bundle(3, k)) == math.comb(k + 3, 3)
        assert euler_characteristic(ch_line_bundle(2, k)) == math.comb(k + 2, 2)


def test_euler_structure_sheaf_and_closed_form_examples():
    assert euler_characteristic(ChernCharacter.of(2, 1, 0, 0)) == 1
    assert euler_characteristic(ChernCharacter.of(2, 2, 0, -5)) == -3
    assert euler_characteristic(ch_line_bundle(3, 2)) == 10


def test_euler_equals_closed_forms_on_random_input():
    rng = random.Random(105)
    for _ in range(300):
        x = random_character(rng, 2)
        assert euler_characteristic(x) == x.ch0 + F(3, 2) * x.ch1 + x.ch2
        y = random_character(rng, 3)
        assert (
            euler_characteristic(y)
            == y.ch3 + 2 * y.ch2 + F(11, 6) * y.ch1 + y.ch0
        )


def test_euler_is_top_coefficient_of_todd_product():
    rng = random.Random(106)
    for _ in range(100):
        dim = rng.choice((2, 3))
        x = random_character(rng, dim)
        assert euler_characteristic(x) == (x * todd(dim)).components[dim]


@st.composite
def characters(draw):
    n = draw(st.sampled_from((2, 3)))
    rank = draw(st.integers(-9, 9))
    rational = st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 720))
    rest = draw(st.lists(rational, min_size=n, max_size=n))
    return ChernCharacter(n, (F(rank), *rest))


@given(x=characters(), a=st.integers(-40, 40), b=st.integers(-40, 40))
def test_integer_kernels_equal_their_fraction_definitions(x, a, b):
    # twist and euler_characteristic run over a common denominator; their
    # definitions are the Fraction product and the Todd-class sum
    n = x.ambient_dim
    twisted = twist(x, a)
    assert twisted == mul(x, ch_line_bundle(n, a))
    assert twist(twisted, b) == twist(x, a + b)
    td = todd(n).components
    chi = euler_characteristic(x)
    assert chi == sum((x.components[i] * td[n - i] for i in range(n + 1)), F(0))
    # the catalog encoder tells int and Fraction apart
    for value in (*twisted.components, *twist(twisted, b).components, chi):
        assert type(value) is F


@given(
    rank=st.integers(-9, 9),
    c1=st.integers(-10**3, 10**3),
    c2=st.integers(-10**4, 10**4),
    c3=st.integers(-10**5, 10**5),
)
def test_chern_to_character_builds_exact_fractions(rank, c1, c2, c3):
    for n, classes in ((2, ChernClasses(rank, c1, c2)), (3, ChernClasses(rank, c1, c2, c3))):
        x = chern_to_character(classes, n)
        assert x == ChernCharacter(n, x.components)
        assert all(type(value) is F for value in x.components)
        assert character_to_chern(x) == classes


def test_twist_rejects_a_k_that_is_not_an_int():
    x = ChernCharacter.of(2, 2, 0, -5)
    for k in (1.0, F(1), True):
        with pytest.raises(IntegralityError, match="must be an integer"):
            twist(x, k)


@pytest.mark.parametrize("k", [F(1, 2), True, 1.0, None], ids=["half", "bool", "float", "none"])
def test_line_bundle_rejects_a_k_that_is_not_an_int(k):
    # ch_line_bundle(3, F(1, 2)) used to return the character of "O(1/2)"
    with pytest.raises(IntegralityError, match="must be an integer"):
        ch_line_bundle(3, k)


# ---------------------------------------------------------------------------
# restriction and pushforward


def test_restrict_drops_last_component():
    x = ChernCharacter.of(3, 2, -1, "-9/2", "71/6")
    assert restrict_to_hyperplane(x) == ChernCharacter.of(2, 2, -1, "-9/2")
    assert restrict_to_hyperplane(ch_line_bundle(3, 0)) == ch_line_bundle(2, 0)


def test_restrict_requires_p3():
    with pytest.raises(DimensionMismatchError):
        restrict_to_hyperplane(ch_line_bundle(2, 1))


@pytest.mark.parametrize(
    "operation",
    [pushforward_from_hyperplane, lambda x: x.ch3],
    ids=["pushforward", "ch3"],
)
def test_p3_operations_reject_a_p2_character(operation):
    with pytest.raises(DimensionMismatchError):
        operation(ch_line_bundle(2, 1))


def test_restrict_commutes_with_twist():
    rng = random.Random(107)
    for _ in range(100):
        x = random_character(rng, 3)
        k = rng.randint(-6, 6)
        assert restrict_to_hyperplane(twist(x, k)) == twist(
            restrict_to_hyperplane(x), k
        )


def test_pushforward_structure_sheaf():
    got = pushforward_from_hyperplane(ch_line_bundle(3, 0))
    assert got == ChernCharacter.of(3, 0, 1, "-1/2", "1/6")


def test_pushforward_displayed_formula():
    rng = random.Random(108)
    for _ in range(100):
        x = random_character(rng, 3)
        ch0, ch1, ch2, _ = x.components
        expected = ChernCharacter.of(
            3, 0, ch0, ch1 - ch0 / 2, ch2 - ch1 / 2 + ch0 / 6
        )
        assert pushforward_from_hyperplane(x) == expected
        assert pushforward_from_hyperplane(x) == x - twist(x, -1)


def test_pushforward_hand_value():
    # (2, -1, -9/2): ch1 - ch0/2 = -2, ch2 - ch1/2 + ch0/6 = -9/2 + 1/2 + 1/3
    got = pushforward_from_hyperplane(ChernCharacter.of(3, 2, -1, "-9/2", "71/6"))
    assert got == ChernCharacter.of(3, 0, 2, -2, "-11/3")


def test_pushforward_euler_matches_restriction_euler():
    rng = random.Random(109)
    for _ in range(200):
        x = random_character(rng, 3)
        assert euler_characteristic(
            pushforward_from_hyperplane(x)
        ) == euler_characteristic(restrict_to_hyperplane(x))


# ---------------------------------------------------------------------------
# Chern class conversion


def test_chern_to_character_hand_values():
    got = chern_to_character(ChernClasses(2, -1, 5, 19), 3)
    assert got == ChernCharacter.of(3, 2, -1, "-9/2", "71/6")
    assert chern_to_character(ChernClasses(4, 0, 0, 0), 3) == ChernCharacter.of(
        3, 4, 0, 0, 0
    )
    for c2 in range(-6, 7):
        got = chern_to_character(ChernClasses(2, 0, c2), 2)
        assert got == ChernCharacter.of(2, 2, 0, -c2)


def test_character_to_chern_hand_values():
    got = character_to_chern(ChernCharacter.of(3, 2, -1, "-9/2", "71/6"))
    assert got == ChernClasses(2, -1, 5, 19)
    assert character_to_chern(ch_line_bundle(3, 0)) == ChernClasses(1, 0, 0, 0)


def test_character_to_chern_rejects_non_integral_classes():
    with pytest.raises(IntegralityError):
        character_to_chern(ChernCharacter.of(2, 2, 0, "1/3"))


def test_chern_roundtrip_on_integer_classes():
    rng = random.Random(110)
    for _ in range(300):
        rank = rng.randint(-4, 6)
        c1, c2 = rng.randint(-8, 8), rng.randint(-8, 8)
        classes = ChernClasses(rank, c1, c2, rng.randint(-20, 20))
        assert character_to_chern(chern_to_character(classes, 3)) == classes
        flat = ChernClasses(rank, c1, c2)
        assert character_to_chern(chern_to_character(flat, 2)) == flat


@pytest.mark.parametrize("bad", [True, 1.0, F(1)], ids=["bool", "float", "fraction"])
@pytest.mark.parametrize("field", ["rank", "c1", "c2", "c3"])
def test_chern_classes_reject_a_non_int(field, bad):
    values = {"rank": 2, "c1": -1, "c2": 5, "c3": 19, field: bad}
    with pytest.raises(IntegralityError, match=f"{field} must be an integer"):
        ChernClasses(**values)


def test_chern_conversion_requires_matching_c3():
    with pytest.raises(DimensionMismatchError):
        chern_to_character(ChernClasses(2, 0, 1), 3)
    with pytest.raises(DimensionMismatchError):
        chern_to_character(ChernClasses(2, 0, 1, 0), 2)


@pytest.mark.parametrize("build", [
    lambda: todd(3.0),
    lambda: ChernCharacter(2.0, (1, 0, 0)),
    lambda: ch_line_bundle(2.0, 1),
], ids=["todd", "character", "line-bundle"])
def test_ambient_dimension_that_is_not_an_int_is_rejected(build):
    # 3.0 passed the old `n in (2, 3)` test by equality
    with pytest.raises(IntegralityError, match="^ambient dimension must be an integer, got "):
        build()


# ---------------------------------------------------------------------------
# value plumbing


def test_character_validation():
    with pytest.raises(IntegralityError):
        ChernCharacter.of(2, "1/2", 0, 0)
    with pytest.raises(DimensionMismatchError):
        ChernCharacter.of(2, 1, 0, 0, 0)
    with pytest.raises(UnsupportedDimensionError):
        ChernCharacter.of(4, 1, 0, 0, 0, 0)


def test_rank_zero_character_is_allowed():
    torsion = ChernCharacter.of(3, 0, 1, "-1/2", "1/6")
    assert torsion.rank == 0


def test_rational_serialization_round_trip():
    cases = [F(3, 2), F(-9, 2), F(5), F(0), F(-7, 3), F(71, 6)]
    for value in cases:
        assert parse_rational(rational_str(value)) == value
    assert rational_str(F(5)) == "5"
    assert rational_str(F(-10, 4)) == "-5/2"
    assert parse_rational("71/6") == F(71, 6)
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("seven")
    with pytest.raises(ValueError):
        parse_rational("3/0")


@pytest.mark.parametrize("value", [1.5, True, None], ids=["float", "bool", "none"])
def test_as_rational_rejects_a_non_exact_value(value):
    with pytest.raises(IntegralityError, match="cannot interpret"):
        as_rational(value)


def test_parse_rational_rejects_a_value_that_is_not_a_string():
    # it used to end in AttributeError
    with pytest.raises(IntegralityError, match="cannot interpret None"):
        parse_rational(None)


@given(st.fractions())
def test_rational_str_round_trips(value):
    text = rational_str(value)
    assert parse_rational(text) == value
    assert rational_str(parse_rational(text)) == text
    # the canonical form: reduced, denominator > 1 when written, no "-0",
    # no leading zeros
    num, _, den = text.lstrip("-").partition("/")
    assert text != "-0"
    assert num == "0" or not num.startswith("0")
    if den:
        assert not den.startswith("0") and int(den) > 1
        assert math.gcd(int(num), int(den)) == 1


@given(
    num=st.integers(-10**6, 10**6),
    den=st.integers(1, 10**4),
    scale=st.integers(1, 50),
    zeros=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    pads=st.tuples(st.sampled_from(("", " ", "\t", "\n", " \r\n")), st.sampled_from(("", " ", "\n"))),
    minus_zero=st.booleans(),
    slash=st.booleans(),
)
@example(num=0, den=1, scale=1, zeros=(2, 0), pads=("", ""), minus_zero=True, slash=False)
@example(num=1, den=2, scale=2, zeros=(0, 0), pads=(" ", " "), minus_zero=False, slash=True)
@example(num=7, den=1, scale=1, zeros=(2, 0), pads=("", ""), minus_zero=False, slash=False)
def test_rational_str_canonicalises_spellings(num, den, scale, zeros, pads, minus_zero, slash):
    """Padded, unreduced and zero-led spellings ("-0", " 2/4 ", "007") all
    read back to the one canonical form of their value."""
    sign = "-" if num < 0 or (num == 0 and minus_zero) else ""
    spelled = sign + "0" * zeros[0] + str(abs(num) * scale)
    if slash or den * scale != 1:
        spelled += "/" + "0" * zeros[1] + str(den * scale)
    spelled = pads[0] + spelled + pads[1]
    assert parse_rational(spelled) == F(num, den)
    assert rational_str(parse_rational(spelled)) == rational_str(F(num, den))

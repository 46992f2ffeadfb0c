"""Exact intersection-theory arithmetic on the projective spaces P^2 and P^3.

A Chern character is stored as its vector of H-degree components
(ch_0, ..., ch_n).  The Todd class of P^n is a `ChernCharacter` too, so the
Euler characteristic of x is the top component of ``x * todd(n)``.  Every
component is an exact `fractions.Fraction` and nothing in this module (or
anywhere else in the package) ever touches floating point: the bound
formulas downstream cube quantities like |c_1|/n + n and must stay exact
at the boundary.

On top of the character arithmetic (truncated products, twists by line
bundles, duals) the module provides the Riemann-Roch Euler characteristic,
restriction of a character from P^3 to a hyperplane P^2, the character of
the pushforward of a hyperplane sheaf, and the translation between integer
Chern classes and Chern characters.

P^2 and P^3 values never mix: the ambient dimension is carried on every
value and checked by every binary operation.  Restriction P^3 -> P^2 is
the only bridge between the two rings.

The per-entry kernels of the family catalogs -- :func:`twist`,
:func:`euler_characteristic` and :func:`chern_to_character` -- run in
integers.  They put the input components over one common denominator,
combine the integer numerators with fixed n!-scaled weights (n!/i! for
the coefficients of ch(O(k)), n! td for Riemann-Roch), and make one
``Fraction`` per output component from the integer sum and the common
denominator.  Their results skip the coercion in the constructor, since
every component is already an exact ``Fraction`` and ch_0 stays an
integer.  Each equals its definition through :func:`mul` and the Todd
class; ``tests/test_chow.py`` checks that with hypothesis.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Union

from .errors import (
    DimensionMismatchError,
    IntegralityError,
    UnsupportedDimensionError,
    check_integer,
)

RationalLike = Union[int, Fraction, str]

SUPPORTED_DIMENSIONS = (2, 3)

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")

_TODD_COMPONENTS = {
    2: (Fraction(1), Fraction(3, 2), Fraction(1)),
    3: (Fraction(1), Fraction(2), Fraction(11, 6), Fraction(1)),
}

# n!/i! for i = 0..n: n! times the H^i coefficient k^i/i! of ch(O(k)), per k^i
_FACTORIAL_SCALES = {
    n: tuple(factorial(n) // factorial(i) for i in range(n + 1)) for n in SUPPORTED_DIMENSIONS
}

# n! td_(n-i) for i = 0..n, the Riemann-Roch weight of ch_i scaled by n!:
# (2, 3, 2) on P^2 and (6, 11, 12, 6) on P^3
_RIEMANN_ROCH_WEIGHTS = {
    n: tuple(int(factorial(n) * td[n - i]) for i in range(n + 1))
    for n, td in _TODD_COMPONENTS.items()
}


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Anything else (a float, a bool, None, a malformed string) raises
    :class:`IntegralityError`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError:
            pass  # a malformed string
    raise IntegralityError(f"cannot interpret {value!r} as an exact rational")


def rational_str(value: RationalLike) -> str:
    """Serialize a rational canonically: reduced "p/q", or "p" when q = 1.

    This is the wire format used by the CLI and the catalog files; it
    round-trips exactly through :func:`parse_rational`.
    """
    value = as_rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" (or bare "p") form produced by :func:`rational_str`.

    A malformed string raises ``ValueError``; a value that is not a string
    raises :class:`IntegralityError`.
    """
    if not isinstance(text, str):
        raise IntegralityError(f"cannot interpret {text!r} as an exact rational")
    stripped = text.strip()
    if not _RATIONAL_RE.match(stripped):
        raise ValueError(f"not a p/q rational: {text!r}")
    try:
        return Fraction(stripped)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}")


def _check_dimension(n: int) -> None:
    check_integer("ambient dimension", n)  # 3.0 == 3, but is no dimension
    if n not in SUPPORTED_DIMENSIONS:
        raise UnsupportedDimensionError(f"ambient dimension must be 2 or 3, got {n}")


def _check_same_space(a: "ChernCharacter", b: "ChernCharacter") -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"cannot combine a P^{a.ambient_dim} value with a P^{b.ambient_dim} value"
        )


@dataclass(frozen=True)
class ChernCharacter:
    """Chern character (ch_0, ..., ch_n) of a sheaf-like class on P^n.

    ch_0 is the rank and must be integer-valued; the remaining components
    may be arbitrary exact rationals.  Rank 0 (torsion classes, e.g. the
    pushforward of a hyperplane sheaf) is allowed here; operations that
    require honest sheaf ranks reject it themselves.
    """

    ambient_dim: int
    components: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_dimension(self.ambient_dim)
        comps = tuple(map(as_rational, self.components))
        object.__setattr__(self, "components", comps)
        if len(comps) != self.ambient_dim + 1:
            raise DimensionMismatchError(
                f"character on P^{self.ambient_dim} needs "
                f"{self.ambient_dim + 1} components, got {len(comps)}"
            )
        if comps[0].denominator != 1:
            raise IntegralityError(f"ch_0 must be an integer, got {comps[0]}")

    @classmethod
    def of(cls, ambient_dim: int, *components: RationalLike) -> "ChernCharacter":
        """Build a character from loosely-typed components (ints, strings, ...)."""
        return cls(ambient_dim, components)

    @property
    def rank(self) -> int:
        return int(self.components[0])

    @property
    def ch0(self) -> Fraction:
        return self.components[0]

    @property
    def ch1(self) -> Fraction:
        return self.components[1]

    @property
    def ch2(self) -> Fraction:
        return self.components[2]

    @property
    def ch3(self) -> Fraction:
        if self.ambient_dim < 3:
            raise DimensionMismatchError("ch_3 is only defined on P^3")
        return self.components[3]

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        if not isinstance(other, ChernCharacter):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        if not isinstance(other, ChernCharacter):
            return NotImplemented
        return sub(self, other)

    def __mul__(self, other: "ChernCharacter") -> "ChernCharacter":
        if not isinstance(other, ChernCharacter):
            return NotImplemented
        return mul(self, other)

    def __str__(self) -> str:
        return "(" + ", ".join(rational_str(c) for c in self.components) + ")"


def _exact_character(n: int, components: tuple[Fraction, ...]) -> ChernCharacter:
    """A character whose components are already exact, with an integer ch_0.

    Skips the coercion and checks of ``ChernCharacter.__post_init__``; only
    for the Todd classes and for results built here from checked values.
    """
    x = object.__new__(ChernCharacter)
    object.__setattr__(x, "ambient_dim", n)
    object.__setattr__(x, "components", components)
    return x


def todd(n: int) -> ChernCharacter:
    """Todd class of P^n: (1, 3/2, 1) for n = 2 and (1, 2, 11/6, 1) for n = 3."""
    _check_dimension(n)
    return _exact_character(n, _TODD_COMPONENTS[n])


def _common_numerators(components: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """The components over their least common denominator: (numerators, den)."""
    denominators = [c.denominator for c in components]
    den = lcm(*denominators)
    return [c.numerator * (den // q) for c, q in zip(components, denominators)], den


@dataclass(frozen=True)
class ChernClasses:
    """Integer Chern classes (rank, c1, c2, and c3 on P^3 only)."""

    rank: int
    c1: int
    c2: int
    c3: int | None = None

    def __post_init__(self) -> None:
        for name in ("rank", "c1", "c2"):
            check_integer(name, getattr(self, name))
        if self.c3 is not None:
            check_integer("c3", self.c3)


def ch_line_bundle(n: int, k: int) -> ChernCharacter:
    """Character of O(k) on P^n: the exponential exp(kH) truncated at H^n.

    Component i is k^i / i!.
    """
    _check_dimension(n)
    check_integer("the degree k of O(k)", k)
    comps = tuple(Fraction(k**i, factorial(i)) for i in range(n + 1))
    return ChernCharacter(n, comps)


def _convolve(a: tuple[Fraction, ...], b: tuple[Fraction, ...], n: int) -> tuple[Fraction, ...]:
    return tuple(
        sum((a[i] * b[d - i] for i in range(d + 1)), Fraction(0)) for d in range(n + 1)
    )


def mul(a: ChernCharacter, b: ChernCharacter) -> ChernCharacter:
    """Product of characters: degree-wise convolution truncated past H^n."""
    _check_same_space(a, b)
    n = a.ambient_dim
    return ChernCharacter(n, _convolve(a.components, b.components, n))


def add(a: ChernCharacter, b: ChernCharacter) -> ChernCharacter:
    """Componentwise sum (character of a direct sum)."""
    _check_same_space(a, b)
    return ChernCharacter(
        a.ambient_dim, tuple(x + y for x, y in zip(a.components, b.components))
    )


def sub(a: ChernCharacter, b: ChernCharacter) -> ChernCharacter:
    """Componentwise difference (character of a two-term complex)."""
    _check_same_space(a, b)
    return ChernCharacter(
        a.ambient_dim, tuple(x - y for x, y in zip(a.components, b.components))
    )


def twist(x: ChernCharacter, k: int) -> ChernCharacter:
    """Character of x tensored with O(k); equals mul(x, ch_line_bundle(n, k)).

    Evaluated in integers: with x_i = a_i / den, component d of the product
    is sum_j a_(d-j) (n!/j!) k^j over n! den.
    """
    check_integer("the twist k of O(k)", k)
    n = x.ambient_dim
    numerators, den = _common_numerators(x.components)
    scales = _FACTORIAL_SCALES[n]
    powers, power = [], 1  # powers[j] = (n!/j!) k^j
    for scale in scales:
        powers.append(scale * power)
        power *= k
    den *= scales[0]
    return _exact_character(n, tuple(
        Fraction(sum(map(operator.mul, numerators[d::-1], powers)), den) for d in range(n + 1)
    ))


def dual(x: ChernCharacter) -> ChernCharacter:
    """Character of the dual: component i picks up the sign (-1)^i."""
    return ChernCharacter(
        x.ambient_dim,
        tuple(c if i % 2 == 0 else -c for i, c in enumerate(x.components)),
    )


def euler_characteristic(x: ChernCharacter) -> Fraction:
    """Euler characteristic via Riemann-Roch: the H^n coefficient of x * td(P^n).

    Expands to ch_0 + 3/2 ch_1 + ch_2 on P^2 and to
    ch_0 + 11/6 ch_1 + 2 ch_2 + ch_3 on P^3, always exactly: with
    x_i = a_i / den it is (2 a_0 + 3 a_1 + 2 a_2) / (2 den), respectively
    (6 a_0 + 11 a_1 + 12 a_2 + 6 a_3) / (6 den).
    """
    n = x.ambient_dim
    numerators, den = _common_numerators(x.components)
    weights = _RIEMANN_ROCH_WEIGHTS[n]
    return Fraction(sum(map(operator.mul, numerators, weights)), den * _FACTORIAL_SCALES[n][0])


def restrict_to_hyperplane(x: ChernCharacter) -> ChernCharacter:
    """Character of the restriction of a P^3 class to a generic hyperplane P^2.

    Restriction simply drops the H^3 component: (ch_0, ch_1, ch_2, ch_3)
    restricts to (ch_0, ch_1, ch_2).
    """
    if x.ambient_dim != 3:
        raise DimensionMismatchError("restriction is defined for P^3 values only")
    return ChernCharacter(2, x.components[:3])


def pushforward_from_hyperplane(x: ChernCharacter) -> ChernCharacter:
    """Character on P^3 of the pushforward of the hyperplane restriction.

    Given ch(F) on P^3, returns ch(i_* F_H) = ch(F) - ch(F(-1)), i.e.
    (0, ch_0, ch_1 - ch_0/2, ch_2 - ch_1/2 + ch_0/6).
    """
    if x.ambient_dim != 3:
        raise DimensionMismatchError("pushforward is defined for P^3 values only")
    return sub(x, twist(x, -1))


def chern_to_character(c: ChernClasses, n: int) -> ChernCharacter:
    """Translate integer Chern classes into the Chern character on P^n.

    Uses ch_1 = c_1, ch_2 = (c_1^2 - 2 c_2)/2 and, on P^3,
    ch_3 = (c_1^3 - 3 c_1 c_2 + 3 c_3)/6.
    """
    _check_dimension(n)
    if (n == 3) != (c.c3 is not None):
        raise DimensionMismatchError(
            "c3 must be given exactly when converting on P^3"
        )
    c1, c2 = c.c1, c.c2
    ch2 = Fraction(c1 * c1 - 2 * c2, 2)
    if n == 2:
        return _exact_character(2, (Fraction(c.rank), Fraction(c1), ch2))
    ch3 = Fraction(c1**3 - 3 * c1 * c2 + 3 * c.c3, 6)
    return _exact_character(3, (Fraction(c.rank), Fraction(c1), ch2, ch3))


def character_to_chern(x: ChernCharacter) -> ChernClasses:
    """Invert :func:`chern_to_character`; the implied c_i must be integers."""
    c1 = x.ch1
    c2 = (c1 * c1 - 2 * x.ch2) / 2
    values = {"c1": c1, "c2": c2}
    if x.ambient_dim == 3:
        values["c3"] = (6 * x.ch3 - c1**3 + 3 * c1 * c2) / 3
    for name, value in values.items():
        if value.denominator != 1:
            raise IntegralityError(f"character implies non-integer {name} = {value}")
    return ChernClasses(
        rank=x.rank,
        c1=int(values["c1"]),
        c2=int(values["c2"]),
        c3=int(values["c3"]) if x.ambient_dim == 3 else None,
    )

"""Exception hierarchy shared by all chowkit modules.

Every exception that reports a *domain* problem (bad invariants, values
outside the supported range, inconsistent inputs) derives from
:class:`DomainError`, so callers -- in particular the command line front
end -- can distinguish domain failures from usage mistakes.

The contract for scalar parameters, those annotated ``int`` or
``RationalLike``: any bad value (a float, a bool, None, a malformed string,
a Fraction where an int is wanted) raises a :class:`DomainError` subclass,
never a bare ``ValueError`` or ``TypeError``.  A parameter that takes an
object of some class may raise ``TypeError`` (or ``AttributeError``) when
given an object of the wrong class, as any Python function does.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Base class for invalid mathematical input; maps to CLI exit code 1."""


class UnsupportedDimensionError(DomainError):
    """Ambient projective dimension other than 2 or 3."""


class DimensionMismatchError(DomainError):
    """Binary operation on values living on different projective spaces."""


class IntegralityError(DomainError):
    """A quantity that must be an integer (rank, Chern class), or an exact
    rational (an int, a Fraction or a "p/q" string), is not."""


def check_integer(name: str, value: object) -> None:
    """Raise :class:`IntegralityError` unless value is an int (a bool is not).

    Called before any arithmetic: a float would otherwise reach a closed
    form or an int-keyed cache entry of its value, and a bool would pass
    silently as 0 or 1.
    """
    if type(value) is not int:
        raise IntegralityError(f"{name} must be an integer, got {value!r}")


class RankMismatchError(DomainError):
    """Splitting type length disagrees with the rank of the character."""


class InadmissibleParameterError(DomainError):
    """Numeric parameter outside the range a formula is proved for."""


class NotRealizableError(DomainError):
    """Requested shape cannot exist (negative or fractional exponents)."""

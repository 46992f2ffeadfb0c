"""Exception hierarchy and value base shared by all chowkit modules.

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

Every public class that checks its input is a :class:`Value`.  The result
records the library builds itself (``BoundReport``, ``PresentationReport``)
are ``NamedTuple``s and check nothing.
"""

from __future__ import annotations

from operator import attrgetter


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


class Value:
    """An immutable value made of the fields its class lists in ``__slots__``.

    A subclass lists its fields in the order its ``__init__`` takes them;
    ``__init__`` checks its arguments, then stores the fields with
    :meth:`_store`.  Values compare, hash and show by their fields, and
    are equal only to values of their own class.
    Assigning or deleting an attribute raises ``AttributeError``.  A copy,
    a deep copy or an unpickled value is rebuilt from the fields through
    ``__init__``, so it passes the same checks.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # what equality and hash read, in one call: the field, or the tuple
        # of the fields when there are several
        cls._key = attrgetter(*cls.__slots__)

    def _store(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class RankMismatchError(DomainError):
    """Splitting type length disagrees with the rank of the character."""


class InadmissibleParameterError(DomainError):
    """Numeric parameter outside the range a formula is proved for."""


class NotRealizableError(DomainError):
    """Requested shape cannot exist (negative or fractional exponents)."""

"""The scalar contract: a bad value of an ``int`` or ``RationalLike``
parameter raises a :class:`DomainError`, never a bare ``ValueError`` or
``TypeError``, and never passes as some other value.

Every public callable that has such a parameter is called once validly, and
then with one scalar argument replaced by junk: a float, a bool, None, a
non-numeric string, a rational that is no integer (for an ``int``).  The
junk call must raise a ``DomainError`` or, when the junk equals a valid
value (``2.0``, ``Fraction(2)``, ``"2"``, ``True``), give what that value
gives.
"""

import inspect
import typing
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import chowkit
from chowkit import ChernClasses, SplittingType, ch_line_bundle
from chowkit.catalog import CATALOG_KINDS
from chowkit.chow import RationalLike
from chowkit.errors import DomainError, Value

# each public callable with an int or RationalLike parameter, and a valid call
VALID_CALLS = {
    "CatalogEntry": ("bound", {"c2": 5}, {}, 1),
    "ChernCharacter": (3, (2, -1, 0, 0)),
    "ChernCharacter.of": (2, 1, 0, Fraction(-1, 2)),
    "ChernClasses": (2, -1, 5),
    "MonadShape": (1, 4, 1),
    "admissible_s": (8,),
    "as_rational": (Fraction(-9, 2),),
    "bound_report": (2, -1, Fraction(-9, 2)),
    "bounds_catalog": (2, -1, range(5, 7)),
    "ch3_bound": (2, -1, Fraction(-9, 2)),
    "ch_line_bundle": (3, 2),
    "charge": (2, -1, Fraction(-3, 2)),
    "chern_to_character": (ChernClasses(2, -1, 5, 19), 3),
    "enumerate_admissible_c3": (2, -1, 5),
    "enumerate_splitting_types": (2, -1),
    "euler_bound": (2, -1, Fraction(-9, 2)),
    "extreme_bounds": (SplittingType((0, -1)), 2),
    "h0_line_bundle": (3, 2),
    "is_normalized": (2, -1),
    "max_admissible_s": (8,),
    "monad_shape": (2, -1, Fraction(-3, 2)),
    "partition_types": (3,),
    "presentation_report": (8, 2),
    "rational_str": (Fraction(-9, 2),),
    "resolution_shapes": (8, 2),
    "splitting_radius": (3, -1),
    "todd": (3,),
    "twist": (ch_line_bundle(3, 1), 2),
}


# the public result records the library builds itself: NamedTuples whose
# fields are not checked.  Every other public class checks its input.
UNCHECKED_RECORDS = {"BoundReport", "PresentationReport"}

PUBLIC_CLASSES = {
    name: obj for name in chowkit.__all__
    if inspect.isclass(obj := getattr(chowkit, name)) and not issubclass(obj, BaseException)
}


def test_every_public_class_is_a_value_or_a_named_unchecked_record():
    records = {name for name, cls in PUBLIC_CLASSES.items() if not issubclass(cls, Value)}
    assert records == UNCHECKED_RECORDS
    for name in records:
        assert issubclass(PUBLIC_CLASSES[name], tuple) and PUBLIC_CLASSES[name]._fields


def _public_callables():
    """Each public function, checked class and classmethod, by its dotted name."""
    for name in chowkit.__all__:
        obj = getattr(chowkit, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif name in PUBLIC_CLASSES and name not in UNCHECKED_RECORDS:
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, classmethod):
                    yield f"{name}.{attr}", getattr(obj, attr)


def _scalar_parameters(function):
    """(position, kind, variadic) of each int or RationalLike parameter."""
    hints = typing.get_type_hints(function.__init__ if inspect.isclass(function) else function)
    return [(index, hints[p.name], p.kind is p.VAR_POSITIONAL)
            for index, p in enumerate(inspect.signature(function).parameters.values())
            if hints.get(p.name) in (int, RationalLike)]


CALLABLES = dict(_public_callables())


def test_every_scalar_callable_has_a_valid_call():
    assert {name for name, f in CALLABLES.items() if _scalar_parameters(f)} == set(VALID_CALLS)


def _slots(name):
    """(index, kind) of each scalar argument of the valid call of ``name``;
    a ``*components`` parameter covers every later argument."""
    args = VALID_CALLS[name]
    return [(index, kind) for start, kind, variadic in _scalar_parameters(CALLABLES[name])
            for index in (range(start, len(args)) if variadic else [start])]


def _junk(value, kind):
    """Bad values for one scalar argument, each with the valid value it
    equals, or None."""
    junk = [(None, None), ("x", None), ("1/0", None), (1.5, None), (True, 1), (False, 0)]
    if kind is int:
        junk += [(float(value), value), (Fraction(value), value), (str(value), value),
                 (Fraction(2 * value + 1, 2), None)]
    else:
        junk += [(float(value), value)]
    return junk


def _outcome(function, args):
    try:
        return function(*args)
    except DomainError:
        return DomainError


@st.composite
def junk_calls(draw):
    """(name, valid args, junk args, the args the junk stands for, or None)."""
    name = draw(st.sampled_from(sorted(VALID_CALLS)))
    args = VALID_CALLS[name]
    index, kind = draw(st.sampled_from(_slots(name)))
    bad, equal = draw(st.sampled_from(_junk(args[index], kind)))

    def replaced(value):
        return args[:index] + (value,) + args[index + 1:]

    return name, args, replaced(bad), None if equal is None else replaced(equal)


@settings(max_examples=150, deadline=None)
@given(junk_calls())
@example(("euler_bound", VALID_CALLS["euler_bound"], (2, -1, "x"), None))
@example(("ch3_bound", VALID_CALLS["ch3_bound"], (2, -1, "1/0"), None))
@example(("monad_shape", VALID_CALLS["monad_shape"], (2, -1, "x"), None))
@example(("ChernCharacter.of", VALID_CALLS["ChernCharacter.of"], (2, 1, 0, "x"), None))
def test_a_bad_scalar_raises_a_domain_error(call):
    name, args, junk, equal = call
    function = CALLABLES[name]
    assert _outcome(function, args) is not DomainError  # the valid call is valid
    result = _outcome(function, junk)
    if result is not DomainError:
        assert equal is not None, f"{name}{junk!r} returned {result!r}"
        assert result == _outcome(function, equal), f"{name}{junk!r}"


# a valid call of each catalog kind; each of its grids (a ``range``
# parameter) then gets a one-value grid of junk
GRID_CALLS = {
    "bounds": (2, -1, range(5, 7)),
    "monads": (2, range(0, 2)),
    "resolutions": (range(5, 7),),
    "strata": (range(5, 7), range(0, 2)),
}


@pytest.mark.parametrize("junk", [True, 1.5, None, "7", Fraction(7)], ids=repr)
@pytest.mark.parametrize("name", sorted(GRID_CALLS))
def test_a_bad_grid_value_raises_a_domain_error(name, junk):
    """A grid value that is not an int is refused by the document and by
    the entries, never written as another value or met by a TypeError."""
    kind, args = CATALOG_KINDS[name], GRID_CALLS[name]
    assert "".join(kind.document(*args).pieces) and list(kind.generate(*args))
    grids = [index for index, (_, type_, _) in enumerate(kind.params) if type_ is range]
    for index in grids:
        bad = args[:index] + ([junk],) + args[index + 1:]
        with pytest.raises(DomainError):
            "".join(kind.document(*bad).pieces)
        with pytest.raises(DomainError):
            list(kind.generate(*bad))

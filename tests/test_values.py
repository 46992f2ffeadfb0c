"""The value classes compare, hash, show, refuse changes and copy like values.

Each class is pinned by two spellings of one value, an unequal value and
the ``repr`` of the first.  A copy, deep copy or unpickled value must equal
the original and be of its class.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from chowkit import (
    CatalogEntry,
    ChernCharacter,
    ChernClasses,
    MonadShape,
    PartitionType,
    SplittingType,
)

# name: (value, the same value spelled otherwise, an unequal value, fields, repr)
VALUES = {
    "ChernCharacter": (
        ChernCharacter(3, (2, -1, 0, Fraction(1, 2))),
        ChernCharacter.of(3, "2", Fraction(-1), 0, "1/2"),
        ChernCharacter(3, (2, -1, 0, 0)),
        ("ambient_dim", "components"),
        "ChernCharacter(ambient_dim=3, components=(Fraction(2, 1), Fraction(-1, 1), "
        "Fraction(0, 1), Fraction(1, 2)))",
    ),
    "ChernClasses": (
        ChernClasses(2, -1, 5, 19),
        ChernClasses(rank=2, c1=-1, c2=5, c3=19),
        ChernClasses(2, -1, 5),
        ("rank", "c1", "c2", "c3"),
        "ChernClasses(rank=2, c1=-1, c2=5, c3=19)",
    ),
    "SplittingType": (
        SplittingType((-1, 0)),
        SplittingType([0, -1]),
        SplittingType((1, -1)),
        ("entries",),
        "SplittingType(entries=(0, -1))",
    ),
    "MonadShape": (
        MonadShape(1, 4, 1),
        MonadShape(v=1, w=4, u=1),
        MonadShape(1, 4, 2),
        ("v", "w", "u"),
        "MonadShape(v=1, w=4, u=1)",
    ),
    "PartitionType": (
        PartitionType(((1,), (1, 2))),
        PartitionType([[2, 1], [1]]),
        PartitionType(((1, 1), (1,))),
        ("parts",),
        "PartitionType(parts=((2, 1), (1,)))",
    ),
    "CatalogEntry": (
        CatalogEntry("bound", {"c2": 5}, {"x": Fraction(1, 2)}),
        CatalogEntry("bound", {"c2": 5}, {"x": Fraction(1, 2)}, 1),
        CatalogEntry("bound", {"c2": 5}, {"x": Fraction(1, 3)}),
        ("kind", "inputs", "outputs", "schema_version"),
        "CatalogEntry(kind='bound', inputs=mappingproxy({'c2': 5}), "
        "outputs=mappingproxy({'x': Fraction(1, 2)}), schema_version=1)",
    ),
}

NAMES = sorted(VALUES)


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_each_field(name):
    value, _, _, _, text = VALUES[name]
    assert repr(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_follow_the_fields(name):
    value, same, other, _, _ = VALUES[name]
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other and not value == other
    assert hash(value) != hash(other)
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_a_value_of_another_class_is_never_equal(name):
    value = VALUES[name][0]
    for other_name in NAMES:
        if other_name != name:
            other = VALUES[other_name][0]
            assert value != other and not value == other
            assert value.__eq__(other) is NotImplemented
    assert value != (value,) and value.__eq__(None) is NotImplemented


@pytest.mark.parametrize("name", NAMES)
def test_a_field_cannot_be_assigned_or_deleted(name):
    value, _, _, fields, text = VALUES[name]
    for field in fields + ("no_such_field",):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_copies_are_equal_values(name):
    value = VALUES[name][0]
    copies = [copy.copy(value)]
    if name != "CatalogEntry":  # its read-only maps cannot be deep-copied or pickled
        copies += [copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    for duplicate in copies:
        assert type(duplicate) is type(value)
        assert duplicate == value and hash(duplicate) == hash(value)
        assert repr(duplicate) == repr(value)

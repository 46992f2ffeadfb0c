"""Shared deterministic generators for the test suite.

Everything random is seeded, so expected values frozen from oracle runs
stay stable across sessions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from chowkit.chow import ChernCharacter
from chowkit.splitting import SplittingType


def random_rational(rng: random.Random, span: int = 60, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_character(rng: random.Random, dim: int, span: int = 60) -> ChernCharacter:
    components = [Fraction(rng.randint(-9, 9))]
    components += [random_rational(rng, span) for _ in range(dim)]
    return ChernCharacter(dim, tuple(components))


def random_splitting_type(rng: random.Random, max_rank: int = 5, span: int = 6) -> SplittingType:
    rank = rng.randint(1, max_rank)
    return SplittingType(tuple(rng.randint(-span, span) for _ in range(rank)))


def set_diff(a, b):
    """Oracle of a catalog diff: the set difference of two collections of lines, each sorted."""
    a, b = set(a), set(b)
    return {"only_in_a": sorted(a - b), "only_in_b": sorted(b - a)}


def c3_oracle(c2: int, s: int) -> int:
    """Oracle: the third Chern class c_2^2 - 2 s c_2 + 2 s (s + 1) of the (c2, s) sheaf."""
    return c2 * c2 - 2 * s * c2 + 2 * s * (s + 1)


def twisted_type(b: SplittingType, k: int) -> SplittingType:
    """Oracle: the splitting type of F(k), every entry shifted by k."""
    return SplittingType(tuple(x + k for x in b.entries))


def negated_type(b: SplittingType) -> SplittingType:
    """Oracle: the splitting type of the dual sheaf, every entry negated."""
    return SplittingType(tuple(-x for x in b.entries))


def h1_invariant_bound(b: SplittingType, ch2: Fraction) -> Fraction:
    """Oracle: the twist- and dual-invariant h^1 bound -ch_2 + (1/2) sum b_i^2."""
    return -Fraction(ch2) + Fraction(b.square_sum, 2)

"""Acceptance suite: one test per release criterion, all at exact tolerance.

Every check is exact rational arithmetic (tolerance zero).  Each test
prints a single PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to see them.
"""

import functools
import random
from fractions import Fraction
from pathlib import Path

from chowkit.bounds import ch3_bound, enumerate_admissible_c3
from chowkit.catalog import parse_catalog, serialize_catalog, serialize_entry, strata_catalog
from chowkit.chow import (
    ChernCharacter,
    ch_line_bundle,
    chern_to_character,
    euler_characteristic,
    mul,
    pushforward_from_hyperplane,
    restrict_to_hyperplane,
    sub,
    todd,
    twist,
)
from chowkit.chow import ChernClasses
from chowkit.cli import main
from chowkit.monads import monad_shape, partition_types
from chowkit.resolutions import admissible_s, presentation_report, resolution_shapes
from chowkit.splitting import enumerate_splitting_types

from conftest import (
    c3_oracle,
    h1_invariant_bound,
    random_character,
    random_rational,
    random_splitting_type,
)
from test_catalog_cli import random_entry
from test_monads import monad_character_oracle, multiset_oracle
from test_resolutions import reference_chern_character
from test_splitting import box_brute_force

F = Fraction


def _report(number, description):
    def decorator(check):
        @functools.wraps(check)
        def wrapper(*args, **kwargs):
            try:
                check(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            print(f"criterion {number}: PASS - {description}")

        return wrapper

    return decorator


@_report(1, "GRR reproduces binomial line-bundle Euler characteristics")
def test_criterion_1_grr_line_bundles():
    for k in range(-12, 13):
        chi2 = euler_characteristic(ch_line_bundle(2, k))
        chi3 = euler_characteristic(ch_line_bundle(3, k))
        assert chi2 == F((k + 1) * (k + 2), 2), k
        assert chi3 == F((k + 1) * (k + 2) * (k + 3), 6), k


@_report(2, "integral form of chi equals the closed forms on 1000 random characters")
def test_criterion_2_closed_forms():
    rng = random.Random(2026)
    for i in range(1000):
        dim = 2 if i % 2 == 0 else 3
        x = random_character(rng, dim)
        td = ChernCharacter(dim, todd(dim).components)
        integral_form = mul(x, td).components[dim]
        if dim == 2:
            closed = x.ch0 + F(3, 2) * x.ch1 + x.ch2
        else:
            closed = x.ch3 + 2 * x.ch2 + F(11, 6) * x.ch1 + x.ch0
        assert integral_form == closed
        assert euler_characteristic(x) == closed


@_report(3, "pushforward Euler characteristic matches the restriction on P^2")
def test_criterion_3_restriction_compatibility():
    rng = random.Random(2027)
    for _ in range(200):
        x = random_character(rng, 3)
        lhs = euler_characteristic(pushforward_from_hyperplane(x))
        rhs = euler_characteristic(restrict_to_hyperplane(x))
        assert lhs == rhs


@_report(4, "h^1 bound is exactly twist- and dual-invariant on 200 random pairs")
def test_criterion_4_invariance_suite():
    rng = random.Random(2028)
    for _ in range(200):
        b = random_splitting_type(rng)
        ch2 = random_rational(rng)
        base = h1_invariant_bound(b, ch2)
        character = ChernCharacter.of(2, b.rank, b.c1, ch2)
        for k in range(-5, 6):
            twisted_ch2 = twist(character, k).ch2
            assert h1_invariant_bound(b.twisted(k), twisted_ch2) == base
        assert h1_invariant_bound(b.dual(), ch2) == base


@_report(5, "resolutions reproduce the Chern character for every c2 in (4, 30]")
def test_criterion_5_resolution_consistency():
    seen = 0
    for c2 in range(5, 31):
        for s in admissible_s(c2):
            c3 = c3_oracle(c2, s)
            r_minus1, r_0 = resolution_shapes(c2, s)
            resolved = sub(
                reference_chern_character(r_0, 3), reference_chern_character(r_minus1, 3)
            )
            assert resolved == chern_to_character(ChernClasses(2, -1, c2, c3), 3)
            seen += 1
    assert seen > 0
    assert presentation_report(5, 1).c3 == c3_oracle(5, 1) == 19
    resolved = chern_to_character(ChernClasses(2, -1, 5, 19), 3)
    assert resolved == ChernCharacter.of(3, 2, -1, "-9/2", "71/6")


@_report(6, "ch_3 of every constructed resolution lies strictly inside the bound")
def test_criterion_6_bound_containment():
    for c2 in range(5, 31):
        ch2 = F(1 - 2 * c2, 2)
        bound = ch3_bound(2, -1, ch2)
        for s in admissible_s(c2):
            ch3 = chern_to_character(ChernClasses(2, -1, c2, c3_oracle(c2, s)), 3).ch3
            assert abs(ch3) < bound, (c2, s)


@_report(7, "monad exponents reproduce (r, d, ch2) over the whole normalized grid")
def test_criterion_7_monad_consistency():
    for r in range(1, 6):
        for d in range(-r + 1, 1):
            for c in range(max(0, -d), 21):
                ch2 = -F(c) - F(d, 2)
                shape = monad_shape(r, d, ch2)
                assert (shape.v, shape.w, shape.u) == (d + c, r + d + 2 * c, c)
                assert monad_character_oracle(shape) == ChernCharacter.of(2, r, d, ch2)
                if d == 0:
                    assert (shape.v, shape.w, shape.u) == (c, r + 2 * c, c)


@_report(8, "enumerators match brute-force oracles and strictness at the endpoints")
def test_criterion_8_enumeration_oracles():
    for r in range(1, 5):
        for c1 in range(-4, 5):
            for flag in (True, False):
                got = [t.entries for t in enumerate_splitting_types(r, c1, flag)]
                assert got == box_brute_force(r, c1, flag), (r, c1, flag)

    counts = [len(partition_types(l)) for l in range(1, 5)]
    assert counts == [1, 3, 6, 14]
    for l in range(1, 5):
        got = {tuple(sorted(p.parts)) for p in partition_types(l)}
        assert got == multiset_oracle(l)

    for (r, c1, c2) in [(2, -1, 5), (2, -1, 20), (1, 0, 0), (3, 2, 7)]:
        c3_min, c3_max = enumerate_admissible_c3(r, c1, c2)
        bound = ch3_bound(r, c1, F(c1 * c1 - 2 * c2, 2))
        assert abs(chern_to_character(ChernClasses(r, c1, c2, c3_min), 3).ch3) < bound
        assert abs(chern_to_character(ChernClasses(r, c1, c2, c3_max), 3).ch3) < bound
        assert abs(chern_to_character(ChernClasses(r, c1, c2, c3_min - 1), 3).ch3) >= bound
        assert abs(chern_to_character(ChernClasses(r, c1, c2, c3_max + 1), 3).ch3) >= bound


@_report(9, "catalog output is byte-identical and JSON round-trips are lossless")
def test_criterion_9_cli_determinism(tmp_path, capsys):
    argv = ["catalog", "strata", "--c2", "5..10", "--l", "0..3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert len(parse_catalog(first)) == len(strata_catalog(range(5, 11), range(0, 4)))

    path_a, path_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (path_a, path_b):
        assert main(argv + ["--output", path]) == 0
        capsys.readouterr()
    assert Path(path_a).read_bytes() == Path(path_b).read_bytes()
    assert main(["catalog", "diff", path_a, path_b]) == 0
    capsys.readouterr()

    rng = random.Random(2029)
    for _ in range(500):
        entry = random_entry(rng)
        text = serialize_entry(entry)
        (parsed,) = parse_catalog(serialize_catalog([entry]))
        assert parsed == entry
        assert serialize_entry(parsed) == text

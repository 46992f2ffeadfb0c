"""Symbolic proofs of the identities that the runtime checks rely on.

Each identity is a polynomial identity in its free parameters, so one
sympy expansion proves it for every input:

* the resolution ch(R^0) - ch(R^-1) = ch(2, -1, c_2, c_3(c_2, s)) on P^3,
  in (c_2, s);
* the closed forms of dim Hom(R^-1, R^0) and dim End R^-1 + dim End R^0,
  in (c_2, s), under sign conditions that are proved for the whole
  admissible region;
* the monad ch(O^w) - ch(O(-1)^v) - ch(O(1)^u) = (r, d, -c - d/2) on P^2,
  with (v, w, u) = (d + c, r + d + 2c, c), in (r, d, c);
* the charge -chi(F(-1)) = -ch_2 - d/2, by Riemann-Roch with td(P^2);
* the n!-scaled integer tuples the runtime checks compare are n! times the
  rational characters;
* the scaled-integer numerators of the P^3 bounds over their denominators
  are the rational formulas, in (n, |c_1|, p, q, sum b_i^2) with ch_2 = p/q.

The characters of split sheaves are built here summand by summand, one
truncated exp(tH) per line bundle, independently of the closed forms in
``chowkit.resolutions``.
"""

from fractions import Fraction

import sympy as sp

from chowkit import bounds, monads, resolutions

C2, C3, S = sp.symbols("c2 c3 s", integer=True)
R, D, C, CH2 = sp.symbols("r d c ch2")


def ch_line_bundle(n, t):
    """Components (ch_0, ..., ch_n) of O(t) on P^n: exp(tH) truncated past
    H^n, the sum of t^i H^i / i! for i <= n."""
    return [sp.expand(sp.sympify(t) ** i / sp.factorial(i)) for i in range(n + 1)]


def ch_split(n, summands):
    """Character of a direct sum of line bundles, summand by summand."""
    total = [sp.Integer(0)] * (n + 1)
    for t, e in summands:
        total = [a + e * b for a, b in zip(total, ch_line_bundle(n, t))]
    return total


def ch_of_classes(rank, c1, c2, c3):
    """(ch_0, ..., ch_3) of integer Chern classes on P^3."""
    return [
        rank,
        c1,
        sp.Rational(1, 2) * (c1**2 - 2 * c2),
        sp.Rational(1, 6) * (c1**3 - 3 * c1 * c2 + 3 * c3),
    ]


def assert_identity(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert sp.expand(a - b) == 0, (a, b)


# the resolution terms of the (c2, s) sheaf, as in resolution_shapes; at
# s = 1, -s - 1 = -2 and R^0 has the one merged summand O(-2)^2
R_MINUS1 = [(-S - 2, 1), (S - 1 - C2, 1)]
R_0 = [(-1, 1), (-2, 1), (-S - 1, 1), (S - C2, 1)]
R_0_AT_S1 = [(-1, 1), (-2, 2), (1 - C2, 1)]
C3_OF = C2**2 - 2 * S * C2 + 2 * S * (S + 1)


def test_resolution_character_identity():
    resolved = [a - b for a, b in zip(ch_split(3, R_0), ch_split(3, R_MINUS1))]
    assert_identity(resolved, ch_of_classes(2, -1, C2, C3_OF))


def test_symbolic_terms_are_the_library_terms():
    assert sp.expand(resolutions._c3_formula(C2, S) - C3_OF) == 0
    # R_0_AT_S1 is R_0 at s = 1 with its equal twists merged
    merged = {}
    for t, e in R_0:
        t = sp.sympify(t).subs(S, 1)
        merged[t] = merged.get(t, 0) + e
    assert merged == {sp.sympify(t): e for t, e in R_0_AT_S1}
    for c2, s in [(5, 1), (20, 1), (20, 3), (60, 7)]:
        values = {C2: c2, S: s}
        r_0 = R_0_AT_S1 if s == 1 else R_0
        for symbolic, term in zip((R_MINUS1, r_0), resolutions.resolution_shapes(c2, s)):
            assert tuple((int(sp.sympify(t).subs(values)), e) for t, e in symbolic) == term


# The admissible region s >= 1, c2 >= s^2 + s + 2, c2 >= 5, as two branches in
# nonnegative integers a, b.  The last bound only matters at s = 1, where
# s^2 + s + 2 = 4 would put the difference 2s + 2 - c2 at 0.
A, B = sp.symbols("a b", integer=True, nonnegative=True)
ADMISSIBLE = (
    {S: 1, C2: 5 + B},
    {S: 2 + A, C2: (2 + A) ** 2 + (2 + A) + 2 + B},
)


def certified_nonnegative(expr):
    """True if expr is a polynomial with nonnegative coefficients in (a, b) on each branch."""
    return all(
        all(coeff >= 0 for coeff in sp.Poly(sp.expand(expr.subs(branch)), A, B).coeffs())
        for branch in ADMISSIBLE
    )


def test_library_terms_are_strictly_descending():
    # s - 1 - c2 < -s - 2 and s - c2 < -s - 1 on the whole admissible region
    assert certified_nonnegative((-S - 2) - (S - 1 - C2) - 1)
    assert certified_nonnegative((-S - 1) - (S - C2) - 1)
    # -s - 1 < -2 on the branch s >= 2; at s = 1 the two merge
    assert sp.expand((-2 - (-S - 1) - 1).subs(ADMISSIBLE[1])) == A


def sections_of_hom(source, target):
    """dim Hom(source, target) on P^3 over the admissible region, as a polynomial.

    Each twist difference t must be certified t >= 0 (it adds C(t + 3, 3))
    or t <= -1 (it adds 0).  1 - s is the one difference with no fixed
    sign; it is returned apart, as its exponent product.
    """
    total, exceptions = sp.Integer(0), 0
    for ta, ea in source:
        for tb, eb in target:
            t = sp.expand(tb - ta)
            if t == 1 - S:
                exceptions += ea * eb
            elif certified_nonnegative(t):
                total += ea * eb * (t + 1) * (t + 2) * (t + 3) / 6
            else:
                assert certified_nonnegative(-t - 1), t
    return sp.expand(total), exceptions


def test_presentation_dimensions_are_the_closed_forms():
    dim_hom, hom_exceptions = sections_of_hom(R_MINUS1, R_0)
    end_minus1, minus1_exceptions = sections_of_hom(R_MINUS1, R_MINUS1)
    end_0, end_0_exceptions = sections_of_hom(R_0, R_0)
    assert (hom_exceptions, minus1_exceptions, end_0_exceptions) == (0, 0, 1)
    # 1 - s: h^0(O) = 1 at s = 1, and 1 - s <= -1 on the branch s >= 2
    assert (1 - S).subs(ADMISSIBLE[0]) == 0
    assert sp.expand(-(1 - S).subs(ADMISSIBLE[1]) - 1) == A
    hom, end = resolutions._scaled_dims(C2, S)
    assert sp.expand(hom - 6 * dim_hom) == 0
    assert sp.expand(end - 6 * (end_minus1 + end_0)) == 0
    # the polynomials of the module docstring, over 6
    assert sp.expand(hom / 6 - (
        C2**3 / 2 - 2 * C2**2 * S + sp.Rational(5, 2) * C2**2 + 3 * C2 * S**2
        - 7 * C2 * S + 4 * C2 - sp.Rational(4, 3) * S**3 + 8 * S**2 + S / 3 + 15
    )) == 0
    assert sp.expand(end / 6 - (
        sp.Rational(2, 3) * C2**3 - 3 * C2**2 * S + sp.Rational(3, 2) * C2**2
        + 5 * C2 * S**2 - 5 * C2 * S + sp.Rational(5, 6) * C2
        - sp.Rational(8, 3) * S**3 + 6 * S**2 + sp.Rational(2, 3) * S + 11
    )) == 0
    # the region the branches cover is the admissible one of the library
    for c2 in range(0, 60):
        for s in range(0, 10):
            covered = s >= 1 and c2 >= max(5, s * s + s + 2)
            assert covered == (1 <= s <= resolutions.max_admissible_s(c2)), (c2, s)


def test_monad_character_identity():
    v, w, u = D + C, R + D + 2 * C, C
    middle = ch_split(2, [(0, w)])
    outer = [a + b for a, b in zip(ch_split(2, [(-1, v)]), ch_split(2, [(1, u)]))]
    assert_identity([m - o for m, o in zip(middle, outer)], [R, D, -C - D / 2])
    # the closed form monad_shape compares: (w - v - u, v - u, -(v + u)/2)
    assert_identity([m - o for m, o in zip(middle, outer)], [w - v - u, v - u, -(v + u) / 2])


def test_charge_is_riemann_roch():
    todd = [1, sp.Rational(3, 2), 1]
    ch_f, ch_minus1 = [R, D, CH2], ch_line_bundle(2, -1)
    # ch(F(-1)) = ch(F) ch(O(-1)), truncated past H^2
    twisted = [sum(ch_f[i] * ch_minus1[k - i] for i in range(k + 1)) for k in range(3)]
    chi = sum(twisted[i] * todd[2 - i] for i in range(3))
    assert sp.expand(-chi - (-CH2 - D / 2)) == 0
    # the library's closed form agrees with the Riemann-Roch expression
    for r, d, ch2 in [(1, 0, Fraction(0)), (2, -1, Fraction(-9, 2)), (5, -3, Fraction(7, 4))]:
        value = (-chi).subs({R: r, D: d, CH2: sp.Rational(ch2.numerator, ch2.denominator)})
        assert monads.charge(r, d, ch2) == Fraction(int(value.p), int(value.q))


def test_scaled_tuples_are_factorial_times_characters():
    # a split sheaf with symbolic twists and exponents, on P^2 and P^3
    t1, t2, e1, e2 = sp.symbols("t1 t2 e1 e2", integer=True)
    for n in (2, 3):
        summands = [(t1, e1), (t2, e2)]
        scaled = resolutions._scaled_character(summands, n)
        assert_identity(scaled, [sp.factorial(n) * x for x in ch_split(n, summands)])
    # the resolution: the tuples verify_resolution_chern compares
    resolved = [
        a - b
        for a, b in zip(
            resolutions._scaled_character(R_0, 3), resolutions._scaled_character(R_MINUS1, 3)
        )
    ]
    assert_identity(resolved, [6 * x for x in ch_of_classes(2, -1, C2, C3_OF)])
    target = [6 * x for x in ch_of_classes(2, -1, C2, C3)]
    assert_identity(resolutions._scaled_target(C2, C3), target)


def test_scaled_bound_numerators_are_the_rational_formulas():
    n, q = sp.symbols("n q", positive=True, integer=True)
    a, squares = sp.symbols("a squares", nonnegative=True, integer=True)
    p = sp.Symbol("p", integer=True)
    t, ch2 = (a + n**2) / n, p / q
    nt, den, h1_worst, shift, sections, ch3_shift = bounds._scaled(n, a, p, q)
    h1 = bounds._typed_h1(n, p, q, squares)

    def equal(scaled, rational):
        assert sp.simplify(scaled - rational) == 0, (scaled, rational)

    inv_worst = -ch2 + n * t**2 / 2
    inv = -ch2 + squares / 2
    q_worst = t + 4 - ch2 + n * t**2 / 2
    euler = 2 * q_worst * inv_worst + n * (t + 3) ** 3 / 6
    wide = 3 * den**2
    equal(nt / n, t)
    equal(den, 2 * n * q)
    equal(h1_worst / den, inv_worst)
    equal(h1 / den, inv)
    equal((h1_worst + shift) / den, q_worst)
    equal((h1 + shift) / den, t + 4 - ch2 + squares / 2)
    equal((h1 + shift) * h1 / den**2, (t + 4 - ch2 + squares / 2) * inv)
    equal(sections / wide, n * (t + 3) ** 3 / 6)
    equal((6 * (h1_worst + shift) * h1_worst + sections) / wide, euler)
    equal(ch3_shift / wide, 2 * abs(ch2) + sp.Rational(11, 6) * a + n)

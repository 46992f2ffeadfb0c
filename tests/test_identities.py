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
* the dimension 3vw + 3wu - 6vu - v^2 - w^2 - u^2 of the P^2 monad modulo
  GL(v) x GL(w) x GL(u) is -chi(F, F) = 2rc + d^2 + dr - r^2, in (r, d, c);
* on P^3, a complex E with H^-1(E) = F (rank 2, c_1 = -1) and H^0(E) = Q of
  length l has chi(E, E) = chi(F, F) = 6 - 8c_2, in (c_2, c_3, l);
* c_3 of the resolved sheaf meets Hartshorne's constraints for c_1 = -1,
  on the whole admissible region;
* the n!-scaled integer tuples the runtime checks compare are n! times the
  rational characters;
* the scaled-integer numerators of the P^3 bounds over their denominators
  are the rational formulas, in (n, |c_1|, p, q, sum b_i^2) with ch_2 = p/q;
* |ch_3| of the resolved sheaf is strictly below the library's ch_3 bound
  (rank 2, c_1 = -1), on the whole admissible region;
* on P^3, the derived dual of a rank-2 reflexive F has the character
  ch(F(-c_1)) - c_3 [pt], in (c_1, c_2, c_3), and that of a complex E with
  H^-1(E) = F and H^0(E) of length l, twisted by c_1, is -ch F + (c_3 - l) [pt],
  in (c_1, c_2, c_3, l).

The characters of split sheaves are built here summand by summand, one
truncated exp(tH) per line bundle, independently of the closed forms in
``chowkit.resolutions``.
"""

from fractions import Fraction

import sympy as sp

from chowkit import bounds, catalog, chow, monads, resolutions

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


def test_resolution_c3_meets_hartshornes_constraints():
    """c_3 of every resolution entry is one a stable rank-2 reflexive sheaf
    with c_1 = -1 can have (Hartshorne, "Stable reflexive sheaves", 1980):
    c_3 > 0, c_3 = c_1 c_2 (mod 2) and c_3 <= c_2^2, on the whole admissible
    region."""
    c3 = resolutions._c3_formula(C2, S)
    assert certified_nonnegative(c3 - 1)
    # c_3 - c_1 c_2 is twice an integer: c_2 (c_2 + 1) is even
    assert sp.expand(c3 + C2 - 2 * (C2 * (C2 + 1) / 2 + S * (S + 1 - C2))) == 0
    # c_2^2 - c_3 = 2 s (c_2 - s - 1)
    assert sp.expand(C2**2 - c3 - 2 * S * (C2 - S - 1)) == 0
    assert certified_nonnegative(S * (C2 - S - 1))
    # the entries carry that c_3
    for entry in catalog.CATALOG_KINDS["resolutions"].generate(range(5, 40)):
        c2, c3 = entry.inputs["c2"], entry.outputs["c3"]
        assert 0 < c3 <= c2 * c2 and (c3 + c2) % 2 == 0, entry


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


TODD = {2: [1, sp.Rational(3, 2), 1], 3: [1, 2, sp.Rational(11, 6), 1]}


def chi_pair(n, a, b):
    """chi(A, B) on P^n by Riemann-Roch: the H^n coefficient of
    ch(A^dual) ch(B) td(P^n), where ch_i(A^dual) = (-1)^i ch_i(A)."""
    a_dual = [(-1) ** i * x for i, x in enumerate(a)]
    product = [sum(a_dual[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return sp.expand(sum(product[k] * TODD[n][n - k] for k in range(n + 1)))


def test_monad_stack_dimension_is_minus_chi():
    v, w, u = D + C, R + D + 2 * C, C
    ch_f = [m - o for m, o in zip(
        ch_split(2, [(0, w)]),
        [a + b for a, b in zip(ch_split(2, [(-1, v)]), ch_split(2, [(1, u)]))],
    )]
    dim_stack = 3 * v * w + 3 * w * u - 6 * v * u - v**2 - w**2 - u**2
    chi = chi_pair(2, ch_f, ch_f)
    assert sp.expand(dim_stack + chi) == 0
    assert sp.expand(-chi - (2 * R * C + D**2 + D * R - R**2)) == 0
    # ideal sheaves of n points: (r, d, c) = (1, 0, n)
    n = sp.Symbol("n")
    assert sp.expand(dim_stack.subs({R: 1, D: 0, C: n}) - (2 * n - 1)) == 0
    # the library's route: ch(F) = (r, d, -c - d/2), through chow
    for r, d, c in [(1, 0, 3), (2, -1, 4), (5, -3, 7)]:
        x = chow.ChernCharacter.of(2, r, d, Fraction(-2 * c - d, 2))
        assert -chow.euler_characteristic(chow.mul(chow.dual(x), x)) == dim_stack.subs(
            {R: r, D: d, C: c})


def test_complex_has_the_chi_of_its_reflexive_part():
    L = sp.Symbol("l")
    ch_f, ch_q = ch_of_classes(2, -1, C2, C3), [0, 0, 0, L]
    ch_e = [q - f for q, f in zip(ch_q, ch_f)]
    # the cross terms of degree 3 cancel, and chi(Q, Q) = 0
    assert chi_pair(3, ch_f, ch_q) == 2 * L
    assert chi_pair(3, ch_q, ch_f) == -2 * L
    assert chi_pair(3, ch_q, ch_q) == 0
    chi_f = chi_pair(3, ch_f, ch_f)
    assert sp.expand(chi_pair(3, ch_e, ch_e) - chi_f) == 0
    assert sp.expand(chi_f - (6 - 8 * C2)) == 0
    # the library's route, with c_3 of the resolved sheaf of each (c_2, s)
    for c2, s, l in [(5, 1, 0), (12, 1, 3), (40, 4, 8)]:
        c3 = resolutions._c3_formula(c2, s)
        x = chow.chern_to_character(chow.ChernClasses(2, -1, c2, c3), 3)
        e = chow.sub(chow.ChernCharacter.of(3, 0, 0, 0, l), x)
        assert chow.euler_characteristic(chow.mul(chow.dual(e), e)) == 6 - 8 * c2


def test_resolution_ch3_lies_strictly_inside_the_p3_bound():
    """|ch_3| < ch3_bound(2, -1, ch_2) for every resolution entry, on the
    whole admissible region: the paper's first result, for this family.

    The bound is the library's: ch_2 = (1 - 2 c_2)/2 is in lowest terms and
    negative for c_2 >= 5, its numerators are those of ``bounds._scaled``,
    and both factors of the Euler bound's product are positive there, so
    the product is not clamped.  Acceptance criterion 6 samples the same
    containment as a brute-force oracle."""
    p, q = 1 - 2 * C2, 2
    _, den, h1_worst, shift, sections, ch3_shift = bounds._scaled(2, 1, p, q)
    assert certified_nonnegative(h1_worst - 1) and certified_nonnegative(h1_worst + shift - 1)
    bound = (6 * (h1_worst + shift) * h1_worst + sections + ch3_shift) / (3 * den**2)
    for c2 in (5, 6, 17, 400):
        assert bound.subs(C2, c2) == bounds.ch3_bound(2, -1, Fraction(1 - 2 * c2, 2))
    ch3 = ch_of_classes(2, -1, C2, resolutions._c3_formula(C2, S))[3]
    # 0 < ch_3, so |ch_3| = ch_3, and ch_3 < bound, each by a margin of at least 1/6
    assert certified_nonnegative(ch3 - sp.Rational(1, 6))
    assert certified_nonnegative(bound - ch3 - sp.Rational(1, 6))


def twisted(ch, k):
    """ch(X(k)) on P^3, from the components of ch(X): ch(X) exp(kH), truncated."""
    return [sp.expand(sum(ch[i] * k ** (d - i) / sp.factorial(d - i) for i in range(d + 1)))
            for d in range(4)]


def dualized(ch):
    """ch(X^dual): component i picks up the sign (-1)^i."""
    return [(-1) ** i * x for i, x in enumerate(ch)]


def points(length):
    """The character of a zero-dimensional sheaf of the given length on P^3."""
    return [0, 0, 0, length]


C1, L = sp.symbols("c1 l", integer=True)


def test_derived_dual_of_a_reflexive_sheaf():
    """ch(F(-c_1)) - c_3 [pt] = dual(ch F) for every rank-2 (c_1, c_2, c_3) on
    P^3: the character of RHom(F, O), whose cohomology is F^dual = F(-c_1)
    in degree 0 and Ext^1(F, O), of length c_3, in degree 1.  The second
    oracle is the ``chow`` route over the resolution entries."""
    ch_f = ch_of_classes(2, C1, C2, C3)
    assert_identity([a - b for a, b in zip(twisted(ch_f, -C1), points(C3))], dualized(ch_f))
    for entry in catalog.CATALOG_KINDS["resolutions"].generate(range(5, 41)):
        c3 = entry.outputs["c3"]
        x = chow.chern_to_character(chow.ChernClasses(2, -1, entry.inputs["c2"], c3), 3)
        assert chow.sub(chow.twist(x, 1), chow.ChernCharacter.of(3, 0, 0, 0, c3)) == chow.dual(x)


def test_derived_dual_of_a_stratum_is_the_involution_on_l():
    """For E with H^-1(E) = F (rank 2) and H^0(E) = Q of length l on P^3,
    twist(dual(ch E), c_1) = -ch F + (c_3 - l) [pt]: on characters the
    derived dual, normalized by the twist, is l -> c_3 - l within one
    (c_2, s) stratum.  The second oracle is the ``chow`` route over the
    resolution entries, for l 0..8."""
    ch_f = ch_of_classes(2, C1, C2, C3)
    ch_e = [q - f for q, f in zip(points(L), ch_f)]
    assert_identity(twisted(dualized(ch_e), C1),
                    [q - f for q, f in zip(points(C3 - L), ch_f)])
    # c_3 >= 19 on the whole admissible region, so c_3 - l > 0 for l <= 18
    assert certified_nonnegative(resolutions._c3_formula(C2, S) - 19)
    for entry in catalog.CATALOG_KINDS["resolutions"].generate(range(5, 41)):
        c3 = entry.outputs["c3"]
        x = chow.chern_to_character(chow.ChernClasses(2, -1, entry.inputs["c2"], c3), 3)
        for l in range(9):
            e = chow.sub(chow.ChernCharacter.of(3, 0, 0, 0, l), x)
            assert chow.twist(chow.dual(e), -1) == chow.sub(
                chow.ChernCharacter.of(3, 0, 0, 0, c3 - l), x)

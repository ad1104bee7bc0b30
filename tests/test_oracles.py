"""Outside oracles: sympy's Groebner bases and the colength p^(n-k) of a code.

The other tests mostly compare the kernel with itself. Here a reduced
Groebner basis is checked against sympy's, computed by separate code over
the same prime field, and the standard bases of a code ideal are checked
against the size of its quotient, which the code fixes in advance: the
ideal of an [n, k] code over F_p has p^(n-k) standard monomials, under the
local order at the translated origin as under a global order. Mora
certificates u*f = sum(a_i f_i) + h are re-checked in sympy's F_p
polynomials, with the local order's comparison written out here. Membership
in the translated ideal I is decided without any standard basis: R/I is the
group algebra F_p[F_p^(n-k)] of the syndromes, where X_i is [s_i] - 1.
"""

import random
from itertools import product

import pytest
import sympy

from codegb.buchberger import groebner, reduce_basis
from codegb.codes import (
    closed_form_basis,
    lex_code_basis,
    parse_matrix,
    random_matrix,
    translated_generators,
)
from codegb.monomials import Order
from codegb.mora import standard_basis, weak_normal_form
from codegb.poly import Ring, s_polynomial

from helpers import EXAMPLE_MATRIX, exponent_terms, random_code, random_nonzero_poly, ref_divides
from test_golden_reduction import GOLDEN_CERTIFICATE, local_instance

SYMPY_ORDER = {Order.LEX: "lex", Order.DEGLEX: "grlex", Order.DEGREVLEX: "grevlex"}


def sympy_reduced_basis(gens, ring):
    """sympy's reduced Groebner basis of gens, monic, as sorted term lists."""
    xs = sympy.symbols(f"X1:{ring.n + 1}")
    exprs = [
        sum(c * sympy.prod(x**e for x, e in zip(xs, m)) for c, m in exponent_terms(f))
        for f in gens
    ]
    basis = sympy.groebner(exprs, *xs, modulus=ring.p, order=SYMPY_ORDER[ring.order])
    out = []
    for g in basis.polys:
        # sympy prints residues in (-p/2, p/2); map them to [0, p), then make monic
        f = ring.poly([(int(c) % ring.p, m) for m, c in g.terms()])
        out.append(f * ring.field.inv(f.leading_coefficient))
    return sorted(map(str, out))


@pytest.mark.parametrize("order", list(SYMPY_ORDER))
def test_reduced_basis_matches_sympy(order):
    rng = random.Random(f"sympy-{order.value}")
    proper = 0
    for _ in range(20):
        ring = Ring(rng.choice((2, 3, 5, 7)), rng.randint(2, 3), order)
        gens = [random_nonzero_poly(ring, rng, max_terms=4, max_deg=3) for _ in range(2)]
        ours = sorted(map(str, reduce_basis(groebner(gens))))
        assert ours == sympy_reduced_basis(gens, ring), [str(g) for g in gens]
        proper += ours != ["1"]
    assert proper >= 10  # most instances are not the whole ring


def count_standard_monomials(basis, p, n):
    """Monomials with every exponent at most p divisible by no leading monomial.

    X_i^p lies in the leading ideal of both bases tested here (X_i^p - 1 is
    in the code ideal, and X_i^p is in its translate), so a right basis has
    no standard monomial outside the box, and a basis that misses X_i^p
    counts X_i^p as standard.
    """
    leads = [f.ring.exponents(f.leading_monomial) for f in basis]
    return sum(
        not any(ref_divides(lm, m) for lm in leads)
        for m in product(range(p + 1), repeat=n)
    )


def test_mora_and_degrevlex_bases_have_colength_p_to_the_n_minus_k():
    rng = random.Random(47)
    for _ in range(12):
        p = rng.choice((2, 3, 5))
        k = rng.randint(1, 2)
        n = rng.randint(k + 1, 4 if p == 5 else 5)
        G = random_matrix(rng, p, k, n)
        ring = Ring(p, n, Order.DEGREVLEX)
        global_basis = reduce_basis(groebner([ring.convert(f) for f in lex_code_basis(G)]))
        local_basis = standard_basis(translated_generators(G))
        expected = p ** (n - k)
        assert count_standard_monomials(global_basis, p, n) == expected, G
        assert count_standard_monomials(local_basis, p, n) == expected, G


def negdeglex_key(e):
    """Exponent tuples compare under negdeglex as these keys: lower degree is larger, then lex."""
    return -sum(e), e


def sympy_certificate_failures(f, divisors, unit, coefficients, h):
    """The conditions of a Mora certificate that fail when sympy recomputes them.

    The conditions are u*f = sum(a_i f_i) + h ("identity"), lt(u) = 1, which
    under negdeglex is u's constant coefficient being 1 ("unit"), and
    lm(a_i f_i) <= lm(f) for every i ("leading monomial").
    """
    ring = f.ring
    xs = sympy.symbols(f"X1:{ring.n + 1}")

    def to_sympy(g):
        return sympy.Poly.from_dict({e: c for c, e in exponent_terms(g)}, *xs, modulus=ring.p)

    F, U, H = to_sympy(f), to_sympy(unit), to_sympy(h)
    products = [to_sympy(a) * to_sympy(g) for a, g in zip(coefficients, divisors)]
    lm_f = max(map(negdeglex_key, F.monoms()))
    failed = set()
    if not (U * F - sum(products, H)).is_zero:
        failed.add("identity")
    if int(U.coeff_monomial(1)) % ring.p != 1:
        failed.add("unit")
    if any(P and max(map(negdeglex_key, P.monoms())) > lm_f for P in products):
        failed.add("leading monomial")
    return failed


def closed_form_s_pairs(seed, count, max_terms, min_terms=0):
    """(s, S) for the nonzero S-polynomials s of count seeded closed forms S.

    The codes are distinct draws with p in {2, 3, 5, 7}, k <= 3 and
    n <= k + 3 whose closed forms have min_terms to max_terms terms in all.
    """
    rng = random.Random(seed)
    codes = []
    while len(codes) < count:
        p, k = rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
        G = random_matrix(rng, p, k, rng.randint(k + 1, k + 3))
        S = closed_form_basis(G)
        if G in codes or not min_terms <= sum(len(f.terms) for f in S) <= max_terms:
            continue
        codes.append(G)
        for j in range(len(S)):
            for i in range(j):
                s = s_polynomial(S[i], S[j])
                if s:
                    yield s, S


def sympy_recheck(cases):
    """Re-check the weak normal form of every (f, divisors) case in sympy.

    Returns how many were checked and how many of them record intermediates.
    """
    checked = recorded = 0
    for f, divisors in cases:
        w = weak_normal_form(f, divisors)
        assert not sympy_certificate_failures(
            f, divisors, w.unit, w.coefficients, w.normal_form
        ), (str(f), [str(g) for g in divisors])
        checked += 1
        recorded += w.recorded > 0
    return checked, recorded


def test_mora_certificates_pass_a_sympy_recheck():
    golden = [local_instance(seed) for seed, *_ in GOLDEN_CERTIFICATE]
    assert sympy_recheck(golden) == (17, 14)
    assert sympy_recheck(closed_form_s_pairs("sympy-certificates", 20, 40)) == (86, 7)
    larger = closed_form_s_pairs("sympy-certificates-large", 10, 100, min_terms=41)
    assert sympy_recheck(larger) == (80, 19)


def test_sympy_recheck_rejects_corrupted_certificates():
    S = closed_form_basis(parse_matrix(EXAMPLE_MATRIX))
    s = s_polynomial(S[0], S[1])
    w = weak_normal_form(s, S)
    u, a, h = w.unit, list(w.coefficients), w.normal_form
    x = S[0].ring.variable(2)

    def failures(unit=u, coefficients=a, normal_form=h):
        return sympy_certificate_failures(s, S, unit, coefficients, normal_form)

    assert failures() == set()
    assert "identity" in failures(unit=u + x)
    assert "identity" in failures(coefficients=[a[0] + x] + a[1:])
    assert "identity" in failures(normal_form=h + x)
    # each of the other two conditions fails alone
    assert failures(2 * u, [2 * c for c in a], 2 * h) == {"unit"}
    assert failures(coefficients=[a[0] + 1] + a[1:], normal_form=h - S[0]) == {"leading monomial"}


def syndrome_image(f, G):
    """f's image in F_p[F_p^(n-k)], as a syndrome -> nonzero coefficient dict.

    X_i maps to [s_i] - 1, for s_i column i of the parity-check matrix
    H = (-M^T | I_(n-k)) of G = (I_k | M). The map is onto with kernel the
    translated code ideal, so f is a member exactly when its image is {}.
    """
    p, k, n = G.p, G.k, G.n
    zero = (0,) * (n - k)
    columns = [tuple(-G.rows[i][k + r] % p for r in range(n - k)) for i in range(k)]
    columns += [tuple(int(r == i) for r in range(n - k)) for i in range(n - k)]
    powers = {}  # (i, e) -> ([s_i] - 1)^e

    def convolve(a, b):
        out = {}
        for u, x in a.items():
            for v, y in b.items():
                w = tuple((s + t) % p for s, t in zip(u, v))
                out[w] = (out.get(w, 0) + x * y) % p
        return {w: c for w, c in out.items() if c}

    def power(i, e):
        if (i, e) not in powers:
            x = {columns[i]: 1, zero: p - 1} if any(columns[i]) else {}  # [s_i] - 1
            powers[i, e] = convolve(power(i, e - 1), x) if e else {zero: 1}
        return powers[i, e]

    image = {}
    for c, e in exponent_terms(f):
        term = {zero: c}
        for i, ei in enumerate(e):
            if ei:
                term = convolve(term, power(i, ei))
        for w, x in term.items():
            image[w] = (image.get(w, 0) + x) % p
    return {w: c for w, c in image.items() if c}


def test_syndrome_oracle_decides_membership_in_the_translated_ideal():
    rng = random.Random("syndrome-oracle")
    codes = []
    while len(codes) < 40:
        G = random_code(rng, ps=(2, 3, 5, 7))
        if G.p ** (G.n - G.k) <= 243 and G not in codes:
            codes.append(G)
    elements = certificates = 0
    for G in codes:
        closed = closed_form_basis(G)
        for f in closed + translated_generators(G):
            assert syndrome_image(f, G) == {}, (G, str(f))
        ring = closed[0].ring
        for i in range(G.n):
            syndrome = G.rows[i][G.k :] if i < G.k else (1,)
            assert bool(syndrome_image(ring.variable(i + 1), G)) == any(syndrome), (G, i)
        for j in range(len(closed)):
            for i in range(j):
                s = s_polynomial(closed[i], closed[j])
                if s:
                    w = weak_normal_form(s, closed)
                    assert syndrome_image(w.unit * s - w.normal_form, G) == {}, (G, i, j)
                    certificates += 1
            # a member, though a weak normal form against the other elements misses it
            assert weak_normal_form(closed[j], closed[:j] + closed[j + 1 :]).normal_form, (G, j)
            elements += 1
    assert (elements, certificates) == (143, 156)

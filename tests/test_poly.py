"""Polynomial normalization, arithmetic, leading data, reduction, ecart."""

import math
import random

import pytest

from codegb import ecart, monomials, poly
from codegb.monomials import Order, divides, lcm
from codegb.parsing import parse_poly
from codegb.poly import Polynomial, Ring, s_polynomial

from helpers import (
    G1,
    count_calls,
    exponent_terms,
    random_nonzero_poly,
    random_poly,
    reduce_step,
)


@pytest.fixture
def local6():
    return Ring(3, 6, Order.NEGDEGLEX)


def test_normalize_merges_and_cancels():
    ring = Ring(3, 1, Order.LEX)
    assert ring.poly([(1, (1,)), (2, (1,))]).is_zero
    assert ring.poly([]).is_zero


def test_normalize_orders_by_active_order(local6):
    f = local6.poly([(2, (0, 0, 0, 2, 0, 2)), (1, (1, 0, 0, 0, 0, 0))])
    assert exponent_terms(f) == ((1, (1, 0, 0, 0, 0, 0)), (2, (0, 0, 0, 2, 0, 2)))


def test_normalize_idempotent():
    rng = random.Random(5)
    for p in (2, 3, 5):
        ring = Ring(p, 3, Order.DEGLEX)
        for _ in range(50):
            f = random_poly(ring, rng)
            assert ring.poly(exponent_terms(f)) == f


def test_normalize_rejects_bad_monomials():
    ring = Ring(3, 2, Order.LEX)
    with pytest.raises(ValueError):
        ring.poly([(1, (1, 2, 3))])
    with pytest.raises(ValueError):
        ring.poly([(1, (-1, 0))])


def test_ring_mismatch_rejected():
    a = Ring(3, 2, Order.LEX).variable(1)
    for other in (Ring(3, 2, Order.DEGLEX), Ring(5, 2, Order.LEX), Ring(3, 3, Order.LEX)):
        with pytest.raises(ValueError):
            a + other.variable(1)


def test_ring_laws_random():
    rng = random.Random(99)
    for p in (2, 3):
        ring = Ring(p, 3, Order.DEGREVLEX)
        for _ in range(40):
            f = random_poly(ring, rng, max_terms=4, max_deg=3)
            g = random_poly(ring, rng, max_terms=4, max_deg=3)
            h = random_poly(ring, rng, max_terms=4, max_deg=3)
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f - f).is_zero


def test_char_two_square():
    ring = Ring(2, 1, Order.LEX)
    f = ring.variable(1) + 1
    assert f ** 2 == parse_poly("X1^2+1", ring)


def test_power_beyond_the_exponent_bound_raises():
    # the Frobenius image of (X1 + 1)^(3^9) would need X1^59049 > 32767
    ring = Ring(3, 1, Order.NEGDEGLEX)
    f = ring.variable(1) + 1
    assert f ** 3**9 == parse_poly("1+X1^19683", ring)
    with pytest.raises(ValueError, match=r"exponent 59049 in monomial \(59049,\) exceeds 32767"):
        f ** 3**10


def test_power_squares_the_base_only_while_bits_remain(monkeypatch):
    # below p, f^k costs popcount(k) products into the result and bit_length(k) - 1 squarings
    ring = Ring(7, 1, Order.NEGDEGLEX)
    f = ring.variable(1) + 1
    products = []
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        if isinstance(other, Polynomial):
            products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    counts = []
    for k in range(1, 7):
        products.clear()
        assert f**k == ring.poly((math.comb(k, t), (t,)) for t in range(k + 1))
        counts.append(len(products))
    assert counts == [k.bit_count() + k.bit_length() - 1 for k in range(1, 7)] == [1, 2, 3, 3, 4, 4]


def test_product_expansion_builds_known_element(local6):
    square4 = (local6.variable(4) + 1) ** 2
    square6 = (local6.variable(6) + 1) ** 2
    built = 2 * (square4 * square6) + local6.variable(1) + 1
    assert built == parse_poly(G1, local6)


def test_leading_data(local6):
    f = parse_poly("X1+2X1^2", local6)  # X - X^2 over F_3 in disguise
    assert local6.exponents(f.leading_monomial) == (1, 0, 0, 0, 0, 0)
    g1 = parse_poly(G1, local6)
    assert g1.leading_term == (1, local6.variable(1).leading_monomial)
    lex = Ring(3, 6, Order.LEX)
    assert lex.exponents(parse_poly("X4^3+2", lex).leading_monomial) == (0, 0, 0, 3, 0, 0)
    with pytest.raises(ValueError):
        local6.zero().leading_term


def test_reduce_step_divergence_seed():
    ring = Ring(3, 1, Order.NEGDEGLEX)
    f = parse_poly("X1", ring)
    g = parse_poly("X1+2X1^2", ring)
    assert reduce_step(f, g) == parse_poly("X1^2", ring)


def test_reduce_step_basics():
    ring = Ring(3, 1, Order.NEGDEGLEX)
    x = ring.variable(1)
    assert reduce_step(x * x, x).is_zero
    f = parse_poly("X1+2X1^2", ring)
    assert reduce_step(f, f).is_zero
    with pytest.raises(ValueError):
        reduce_step(x, x * x)  # lm(X^2) does not divide lm(X)


@pytest.mark.parametrize("order", list(Order))
def test_reduce_step_strictly_decreases_lm(order):
    rng = random.Random(31)
    ring = Ring(5, 3, order)
    for _ in range(200):
        g = random_nonzero_poly(ring, rng, max_terms=4, max_deg=4)
        q = ring.encode([rng.randrange(3) for _ in range(3)])
        f = g.mul_term(rng.randrange(1, 5), q)
        f = f + random_poly(ring, rng, max_terms=3, max_deg=4)
        if f.is_zero or not divides(g.leading_monomial, f.leading_monomial, ring.guards):
            continue
        r = reduce_step(f, g)
        if r:
            assert ring.key(r.leading_monomial) < ring.key(f.leading_monomial)


def test_s_polynomial_of_pure_powers_vanishes(local6):
    xi = local6.term(1, (0, 0, 0, 3, 0, 0))
    xj = local6.term(1, (0, 0, 0, 0, 3, 0))
    assert s_polynomial(xi, xj).is_zero


def test_s_polynomial_self_vanishes(local6):
    g1 = parse_poly(G1, local6)
    assert s_polynomial(g1, g1).is_zero
    with pytest.raises(ValueError):
        s_polynomial(g1, local6.zero())


def test_s_polynomial_against_pure_power(local6):
    # spoly(g1, X4^3) = X4^3 * (g1 - X1): every monomial is a multiple of X4^3
    g1 = parse_poly(G1, local6)
    x43 = local6.term(1, (0, 0, 0, 3, 0, 0))
    sp = s_polynomial(g1, x43)
    assert sp == (g1 - local6.variable(1)) * x43
    assert all(m[3] >= 3 for _, m in exponent_terms(sp))


@pytest.mark.parametrize("order", list(Order))
def test_s_polynomial_drops_below_lcm(order):
    rng = random.Random(13)
    ring = Ring(3, 3, order)
    for _ in range(200):
        f = random_nonzero_poly(ring, rng, max_terms=4, max_deg=4)
        g = random_nonzero_poly(ring, rng, max_terms=4, max_deg=4)
        sp = s_polynomial(f, g)
        gamma = lcm(f.leading_monomial, g.leading_monomial, ring)
        if sp:
            assert ring.key(sp.leading_monomial) < ring.key(gamma)


def test_ecart(local6):
    assert ecart(parse_poly("X1+2X1^2", local6)) == 1
    assert ecart(local6.term(2, (0, 1, 0, 2, 0, 0))) == 0
    assert ecart(parse_poly(G1, local6)) == 3
    with pytest.raises(ValueError, match="zero polynomial"):
        ecart(local6.zero())
    for order in (Order.LEX, Order.DEGLEX, Order.DEGREVLEX):
        with pytest.raises(ValueError, match="local order only"):
            ecart(parse_poly("X1+2X1^2", Ring(3, 6, order)))


def test_disjoint_product_makes_no_add_product_call(monkeypatch):
    ring = Ring(7, 4, Order.NEGDEGLEX)
    f = (ring.variable(1) + 1) ** 3 * (ring.variable(2) + 1) ** 2
    g = (ring.variable(3) + 1) ** 4 + ring.variable(4)
    counts = count_calls(monkeypatch, (poly, "add_product"))
    product = f * g
    assert counts == {"add_product": 0}
    assert len(product.terms) == len(f.terms) * len(g.terms) == 12 * 6
    assert product == ring.poly(
        (c1 * c2, tuple(map(sum, zip(e1, e2))))
        for c1, e1 in exponent_terms(f)
        for c2, e2 in exponent_terms(g)
    )
    # a shared variable keeps the accumulated path
    assert (f * (g + ring.variable(2))).terms
    assert counts == {"add_product": 1}


def test_int_multiples_make_one_mul_term_call(monkeypatch):
    ring = Ring(7, 3, Order.NEGDEGLEX)
    f = parse_poly("3X1+X2X3+5X3^2", ring)
    assert f.leading_coefficient != 1
    counts = count_calls(monkeypatch, (poly, "add_product"))
    counts["mul_term"] = 0
    mul_term = Polynomial.mul_term

    def counted(self, *args):
        counts["mul_term"] += 1
        return mul_term(self, *args)

    monkeypatch.setattr(Polynomial, "mul_term", counted)

    def scaled(c):
        return ring.poly((c * fc, e) for fc, e in exponent_terms(f))

    for multiple, expected in (
        (lambda: 3 * f, scaled(3)),
        (lambda: f * -1, scaled(-1)),
        (lambda: -f, scaled(-1)),
        (f.monic, scaled(5)),  # 3 * 5 = 1 mod 7
    ):
        counts.update(add_product=0, mul_term=0)
        assert multiple() == expected
        assert counts == {"add_product": 0, "mul_term": 1}
    assert f.monic().leading_coefficient == 1
    assert (f * 0).is_zero and (f * 7).is_zero


@pytest.mark.parametrize("order", list(Order))
def test_one_term_constructors_match_ring_poly(order):
    ring = Ring(5, 3, order)
    one = (0, 0, 0)
    assert ring.one() == ring.poly([(1, one)])
    for c in range(-5, 11):
        assert ring.constant(c) == ring.poly([(c, one)])
    for i in (1, 2, 3):
        assert ring.variable(i) == ring.poly([(1, tuple(1 if j == i - 1 else 0 for j in range(3)))])
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"variable index {i} out of range"):
            ring.variable(i)


def test_monic_and_scalars():
    ring = Ring(5, 2, Order.LEX)
    f = 3 * ring.variable(1) + 2
    assert f.monic().leading_coefficient == 1
    assert (-f) + f == ring.zero()
    assert f * 0 == ring.zero()
    with pytest.raises(ValueError):
        ring.zero().monic()


def test_convert_is_explicit(local6):
    lex = Ring(3, 6, Order.LEX)
    f = parse_poly(G1, local6)
    g = lex.convert(f)
    assert g.ring == lex
    assert set(exponent_terms(g)) == set(exponent_terms(f))
    assert lex.exponents(g.leading_monomial) == (1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        Ring(3, 5, Order.LEX).convert(f)


def test_foreign_operands_exponents_and_empty_accumulators_are_refused(local6):
    # the protocol and error lines that no other test or workload reaches
    f = parse_poly("X1+2X4^2", local6)
    for k in (-1, 1.5):
        with pytest.raises(ValueError, match="non-negative int"):
            f**k
    for op in (lambda: f + "x", lambda: f - "x", lambda: f * 1.5):
        with pytest.raises(TypeError):
            op()
    assert (f == 3, local6 == 3) == (False, False)
    assert repr(f) == f"Polynomial({f})" == "Polynomial(X1+2X4^2)"
    acc = poly.TermAccumulator(local6, f.terms[:1])
    acc.drop_leading(acc.leading_term()[1])
    with pytest.raises(ValueError, match="no leading term"):
        acc.leading_term()


def test_polynomials_are_hashable(local6):
    f = parse_poly(G1, local6)
    g = parse_poly(G1, local6)
    assert hash(f) == hash(g)
    assert {f, g} == {f}


@pytest.mark.parametrize(
    "p, width",
    [(2, 16), (16381, 16), (16411, 32), (1073741789, 32), (1073741827, 64), (2**64 + 13, 64)],
)
def test_exponent_bound_follows_p(p, width):
    # the smallest field width whose exponents, below 2^(w-1), exceed 2p; 64 bits at most
    ring = Ring(p, 2, Order.NEGDEGLEX)
    bound = 2 ** (width - 1) - 1
    assert (ring.width, ring.bound) == (width, bound)
    assert ring.exponents(ring.term(1, (bound, 1)).leading_monomial) == (bound, 1)
    with pytest.raises(ValueError, match=f"exponent {bound + 1} in monomial .* exceeds {bound}"):
        ring.term(1, (0, bound + 1))


@pytest.mark.parametrize("order", list(Order))
def test_product_overflow_raises_and_never_wraps(order):
    ring = Ring(3, 2, order)
    high = ring.term(1, (0, 20000))
    square = ring.term(1, (0, 32766)) + ring.term(1, (1, 0))
    shifted = square * ring.term(1, (0, 1))
    assert (0, 32767) in [ring.exponents(m) for _, m in shifted.terms]
    # three terms of one degree, so in every order the middle one has X2^20000
    wide = Ring(3, 3, order)
    f = wide.poly([(1, (20002, 0, 0)), (1, (2, 20000, 0)), (1, (1, 0, 20001))])
    assert wide.exponents(f.terms[1][1]) == (2, 20000, 0)
    edge, over = (wide.term(1, (0, e, 0)).leading_monomial for e in (12767, 12768))
    assert f.mul_term(1, edge).terms[1][1] == wide.encode((2, 32767, 0))
    # lcm(lm f, lm g) / lm f = X2^12768 X3^7233 overflows only f's middle term
    g = wide.term(1, (1, 12768, 7233))
    for product in (lambda: high * high, lambda: high ** 2,
                    lambda: square.mul_term(1, high.leading_monomial),
                    lambda: f.mul_term(2, over),
                    lambda: s_polynomial(f, g), lambda: s_polynomial(g, f)):
        with pytest.raises(ValueError, match="exponent overflow: .* above 32767"):
            product()

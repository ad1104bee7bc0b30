"""Buchberger completion, the product criterion, minimalization, reduction."""

import random
import sys
from itertools import permutations

import pytest

from codegb import buchberger, division, monomials
from codegb.buchberger import groebner, minimalize, product_criterion, reduce_basis
from codegb.codes import GeneratorMatrix, lex_code_basis, parse_matrix
from codegb.division import divide
from codegb.gfp import PrimeField
from codegb.monomials import Order
from codegb.parsing import parse_poly
from codegb.poly import Ring, s_polynomial

from helpers import EXAMPLE_MATRIX, count_calls, random_nonzero_poly


@pytest.fixture
def lex_basis():
    return lex_code_basis(parse_matrix(EXAMPLE_MATRIX))


def test_product_criterion():
    ring = Ring(3, 6, Order.LEX)
    x1 = ring.variable(1) + 2
    x2 = ring.variable(2) + 1
    assert product_criterion(x1, x2)
    f = parse_poly("X4^2", ring)
    g = parse_poly("X4X5", ring)
    assert not product_criterion(f, g)
    assert product_criterion(parse_poly("X4^3", ring), parse_poly("X5^3", ring))
    with pytest.raises(ValueError):
        product_criterion(x1, ring.zero())


def test_skipped_pairs_still_reduce_to_zero():
    rng = random.Random(61)
    ring = Ring(3, 4, Order.DEGLEX)
    checked = 0
    while checked < 20:
        f = random_nonzero_poly(ring, rng, max_terms=3, max_deg=3)
        g = random_nonzero_poly(ring, rng, max_terms=3, max_deg=3)
        if not product_criterion(f, g):
            continue
        s = s_polynomial(f, g)
        if s:
            assert divide(s, [f, g]).remainder.is_zero
        checked += 1


def test_single_generator(lex_basis):
    ring = lex_basis[0].ring
    f = 2 * parse_poly("X1+2X4^2X6^2", ring)
    assert groebner([f]) == [f.monic()]


def test_code_basis_is_already_groebner(lex_basis):
    assert set(groebner(lex_basis)) == set(lex_basis)


def test_coprime_pair_completes_immediately():
    ring = Ring(3, 6, Order.LEX)
    f = parse_poly("X1+2X4^2X6^2", ring)
    g = parse_poly("X4^3+2", ring)
    basis = groebner([f, g])
    assert set(basis) == {f, g}
    assert divide(s_polynomial(f, g), basis).remainder.is_zero


def test_groebner_fixpoint_random():
    rng = random.Random(17)
    for p in (2, 3):
        ring = Ring(p, 3, Order.DEGREVLEX)
        for _ in range(15):
            gens = [random_nonzero_poly(ring, rng, max_terms=3, max_deg=3) for _ in range(2)]
            basis = groebner(gens)
            for j in range(len(basis)):
                for i in range(j):
                    s = s_polynomial(basis[i], basis[j])
                    if s:
                        assert divide(s, basis).remainder.is_zero
            for g in gens:
                assert divide(g, basis).remainder.is_zero


def test_groebner_membership_cross_check():
    rng = random.Random(23)
    ring = Ring(3, 3, Order.DEGLEX)
    gens = [random_nonzero_poly(ring, rng, max_terms=3, max_deg=3) for _ in range(2)]
    basis = groebner(gens)
    other = groebner(list(reversed(gens)))
    for f in basis:
        assert divide(f, other).remainder.is_zero
    for f in other:
        assert divide(f, basis).remainder.is_zero


def test_groebner_rejects_local_order_and_zero_input():
    local = Ring(3, 2, Order.NEGDEGLEX)
    with pytest.raises(ValueError, match="standard_basis"):
        groebner([local.variable(1)])
    glob = Ring(3, 2, Order.LEX)
    with pytest.raises(ValueError):
        groebner([glob.zero()])


def test_reduce_basis_on_code_basis(lex_basis):
    assert reduce_basis(lex_basis) == lex_basis


def test_reduce_basis_scalar_duplicates():
    ring = Ring(3, 1, Order.LEX)
    x = ring.variable(1)
    assert reduce_basis([x, 2 * x]) == [x]


def test_reduce_basis_drops_combination():
    ring = Ring(3, 6, Order.LEX)
    a = parse_poly("X1+2X4^2X6^2", ring)
    b = parse_poly("X4^3+2", ring)
    combined = a + b
    assert set(reduce_basis([a, combined, b])) == {a, b}


def test_reduce_basis_is_canonical(lex_basis):
    expected = reduce_basis(groebner(lex_basis))
    for perm in permutations(lex_basis[:3]):
        shuffled = list(perm) + lex_basis[3:]
        assert reduce_basis(groebner(shuffled)) == expected


def test_minimalize_under_both_order_kinds():
    lex = Ring(3, 2, Order.LEX)
    f = lex.variable(1)
    g = parse_poly("X1X2", lex)
    assert minimalize([g, f]) == [f]
    # the zero is dropped and the kept element is made monic
    assert minimalize([lex.zero(), f * 2, g]) == [f]

    local = Ring(3, 2, Order.NEGDEGLEX)
    f2 = local.variable(1)
    g2 = parse_poly("X1X2", local)
    assert minimalize([g2, f2]) == [f2]
    assert minimalize([]) == []


def test_minimalize_and_product_criterion_refuse_mixed_rings():
    lex = Ring(3, 2, Order.LEX)
    other = Ring(5, 2, Order.DEGREVLEX)
    with pytest.raises(ValueError, match="mixed polynomial contexts"):
        minimalize([lex.variable(1), parse_poly("X1^2+X2", other)])
    with pytest.raises(ValueError, match="mixed polynomial contexts"):
        product_criterion(lex.variable(1), Ring(3, 3, Order.NEGDEGLEX).variable(1))
    # equal but distinct rings still pass
    twin = Ring(3, 2, Order.LEX)
    assert minimalize([lex.variable(1), parse_poly("X1X2", twin)]) == [lex.variable(1)]
    assert product_criterion(lex.variable(1), twin.variable(2))
    assert not product_criterion(lex.variable(1), twin.variable(1))


def test_degrevlex_code_basis_makes_a_pinned_number_of_calls(monkeypatch):
    # The work counts behind the benchmark's division.divide.steps (inverses
    # taken directly inside divide, one per step), buchberger.pairs and
    # monomials.divides.calls, counted as its tracer counts them. divide
    # tests the divisors in order with monomials.divides until the first
    # match, so a cheaper set-up or scan must leave these counts fixed.
    divide_code = division.divide.__code__
    counts = count_calls(
        monkeypatch,
        (monomials, "divides"),
        (monomials, "lcm"),
        (division, "divide"),
        (buchberger, "product_criterion"),
    )
    counts["inv in divide"] = 0
    inv = PrimeField.inv

    def counted_inv(self, a):
        if sys._getframe(1).f_code is divide_code:
            counts["inv in divide"] += 1
        return inv(self, a)

    monkeypatch.setattr(PrimeField, "inv", counted_inv)
    G = GeneratorMatrix(3, 1, 5, ((1, 1, 2, 1, 2),))
    ring = Ring(3, 5, Order.DEGREVLEX)
    basis = reduce_basis(groebner([ring.convert(f) for f in lex_code_basis(G)]))
    assert len(basis) > 1
    assert counts == {
        "divides": 11767,
        "lcm": 977,
        "divide": 457,
        "product_criterion": 528,
        "inv in divide": 895,
    }

"""Polynomial text syntax: parsing, canonical printing, round trips."""

import random

import pytest

from codegb.monomials import Order
from codegb.parsing import ParseError, parse_poly, print_poly
from codegb.poly import Ring

from helpers import G2, random_poly


@pytest.fixture
def ring():
    return Ring(3, 6, Order.NEGDEGLEX)


def test_parse_prefix_of_known_polynomial(ring):
    f = parse_poly("X1+X4+X6+2X4^2", ring)
    assert len(f.terms) == 4
    assert f.leading_monomial == ring.variable(1).leading_monomial
    assert ring.exponents(f.leading_monomial) == (1, 0, 0, 0, 0, 0)


def test_parse_zero(ring):
    assert parse_poly("0", ring).is_zero
    assert parse_poly("3", ring).is_zero  # coefficient reduced mod p
    assert parse_poly("X1+2X1", ring).is_zero


def test_parse_index_out_of_range(ring):
    with pytest.raises(ParseError, match="out of range"):
        parse_poly("X7", ring)
    with pytest.raises(ParseError, match="out of range"):
        parse_poly("X0", ring)


def test_star_and_juxtaposition_agree(ring):
    assert parse_poly("2*X4^2*X6^2", ring) == parse_poly("2X4^2X6^2", ring)
    assert parse_poly("X4 X6", ring) == parse_poly("X4X6", ring)
    assert parse_poly(" X4\n+ X6 ", ring) == parse_poly("X4+X6", ring)


def test_signs(ring):
    assert parse_poly("-X1", ring) == parse_poly("2X1", ring)
    assert parse_poly("X1-X1^2", ring) == parse_poly("X1+2X1^2", ring)
    assert parse_poly("-2", ring) == parse_poly("1", ring)


def test_repeated_variable_accumulates(ring):
    assert parse_poly("X4X4", ring) == parse_poly("X4^2", ring)
    assert parse_poly("X4^0", ring) == parse_poly("1", ring)


@pytest.mark.parametrize(
    "text",
    ["", "   ", "X", "2*", "X1^", "X1^-1", "+X1", "X1++X2", "2 3", "Y1", "X1^2^3", "(X1)"],
)
def test_parse_errors(text, ring):
    with pytest.raises(ParseError):
        parse_poly(text, ring)


def test_unicode_subscripts_rejected(ring):
    with pytest.raises(ParseError):
        parse_poly("X₁", ring)  # ASCII only
    with pytest.raises(ParseError):
        parse_poly("X1²", ring)


def test_parse_error_position():
    ring = Ring(3, 6, Order.NEGDEGLEX)
    with pytest.raises(ParseError) as err:
        parse_poly("X1+\nX7", ring)
    assert err.value.line == 2
    assert err.value.col == 1


def test_print_golden_line(ring):
    assert print_poly(parse_poly(G2, ring)) == G2


def test_print_rules(ring):
    assert print_poly(ring.zero()) == "0"
    assert print_poly(ring.one()) == "1"
    assert print_poly(ring.term(2, (0, 0, 0, 1, 0, 0))) == "2X4"
    assert print_poly(ring.term(1, (0, 0, 0, 2, 0, 1))) == "X4^2X6"
    lex = Ring(3, 6, Order.LEX)
    assert print_poly(parse_poly("X4^3-1", lex)) == "X4^3+2"


def test_round_trip_random():
    rng = random.Random(161803)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 6)
        order = rng.choice(list(Order))
        ring = Ring(p, n, order)
        f = random_poly(ring, rng, max_terms=6, max_deg=6)
        assert parse_poly(print_poly(f), ring) == f


def test_print_is_injective_spot_check():
    rng = random.Random(55)
    ring = Ring(5, 3, Order.DEGLEX)
    seen = {}
    for _ in range(300):
        f = random_poly(ring, rng, max_terms=5, max_deg=4)
        text = print_poly(f)
        if text in seen:
            assert seen[text] == f
        seen[text] = f

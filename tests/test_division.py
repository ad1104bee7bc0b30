"""Division algorithm contract under global orders."""

import random

import pytest

from codegb.codes import parse_matrix, lex_code_basis
from codegb.division import divide
from codegb.monomials import Order, divides
from codegb.mora import weak_normal_form
from codegb.parsing import parse_poly
from codegb.poly import Ring

from helpers import EXAMPLE_MATRIX, random_nonzero_poly, random_poly


@pytest.fixture
def lex_basis():
    return lex_code_basis(parse_matrix(EXAMPLE_MATRIX))


def test_divide_by_self():
    ring = Ring(3, 2, Order.LEX)
    f = parse_poly("X1^2+2X2", ring)
    result = divide(f, [f])
    assert result.quotients == (ring.one(),)
    assert result.remainder.is_zero


def test_constant_is_irreducible(lex_basis):
    ring = lex_basis[0].ring
    result = divide(ring.one(), [lex_basis[0]])
    assert result.quotients == (ring.zero(),)
    assert result.remainder == ring.one()


def test_code_basis_division_trace(lex_basis):
    # X1*X2 -> X2*X4^2X6^2 -> X4^3X5^2X6^2 -> X5^2X6^2
    ring = lex_basis[0].ring
    f = parse_poly("X1X2", ring)
    result = divide(f, lex_basis)
    assert result.remainder == parse_poly("X5^2X6^2", ring)
    rebuilt = result.remainder
    for a, g in zip(result.quotients, lex_basis):
        rebuilt = rebuilt + a * g
    assert rebuilt == f


def test_empty_divisor_list_returns_input():
    ring = Ring(3, 2, Order.DEGLEX)
    f = parse_poly("X1+X2^2", ring)
    result = divide(f, [])
    assert result.remainder == f
    assert result.quotients == ()


def test_local_order_rejected():
    ring = Ring(3, 1, Order.NEGDEGLEX)
    f = ring.variable(1)
    with pytest.raises(ValueError, match="weak_normal_form"):
        divide(f, [f])


def test_zero_divisor_rejected():
    ring = Ring(3, 1, Order.LEX)
    with pytest.raises(ValueError):
        divide(ring.variable(1), [ring.zero()])


def test_divisor_checks_and_quotient_slots():
    ring = Ring(5, 3, Order.DEGLEX)
    twin = Ring(5, 3, Order.DEGLEX)  # equal to ring, but a distinct object
    assert twin == ring and twin is not ring
    f = parse_poly("X1^2X2+3X1X3^2+X2", ring)
    texts = ["X3^3+X1", "X1X2+2X3", "X2^4+X1", "X1X3+4"]
    divisors = [parse_poly(text, ring) for text in texts]
    result = divide(f, divisors)
    assert len(result.quotients) == len(divisors)
    unused = [a for a in result.quotients if not a]
    assert unused and all(a == ring.zero() for a in unused)
    assert any(result.quotients)
    mixed = [parse_poly(text, twin if i % 2 else ring) for i, text in enumerate(texts)]
    assert divide(f, mixed) == result
    # the same divisor checks, in the same order, guard Mora's loop
    for reduce, order in ((divide, Order.DEGLEX), (weak_normal_form, Order.NEGDEGLEX)):
        ring, twin = Ring(5, 3, order), Ring(5, 3, order)
        f = parse_poly("X1^2X2+3X1X3^2+X2", ring)
        divisors = [parse_poly(text, ring) for text in texts]
        for other in (Ring(5, 3, Order.LEX), Ring(7, 3, order), Ring(5, 4, order)):
            with pytest.raises(ValueError, match="mixed polynomial contexts"):
                reduce(f, [*divisors, other.variable(1)])
            with pytest.raises(ValueError, match="mixed polynomial contexts"):
                reduce(f, [*divisors, other.zero()])
        for zero in (ring.zero(), twin.zero()):
            with pytest.raises(ValueError, match="divisors must be nonzero"):
                reduce(f, [*divisors, zero])
            with pytest.raises(ValueError, match="divisors must be nonzero"):
                reduce(f, [zero, Ring(7, 3, order).variable(1)])


def test_first_divisor_wins():
    ring = Ring(5, 2, Order.LEX)
    x1, x2 = ring.variable(1), ring.variable(2)
    f = parse_poly("X1X2", ring)
    first = divide(f, [x1, x2])
    second = divide(f, [x2, x1])
    assert first.remainder.is_zero and second.remainder.is_zero
    assert first.quotients[0] == x2 and first.quotients[1].is_zero
    assert second.quotients[0] == x1 and second.quotients[1].is_zero


@pytest.mark.parametrize("order", [Order.LEX, Order.DEGLEX, Order.DEGREVLEX])
def test_division_contract_random(order):
    rng = random.Random(hash(order.value) & 0xFFFF)
    for p in (2, 3, 5):
        ring = Ring(p, 3, order)
        for _ in range(60):
            f = random_poly(ring, rng, max_terms=6, max_deg=5)
            divisors = [
                random_nonzero_poly(ring, rng, max_terms=4, max_deg=4)
                for _ in range(rng.randint(1, 3))
            ]
            result = divide(f, divisors)
            rebuilt = result.remainder
            for a, g in zip(result.quotients, divisors):
                rebuilt = rebuilt + a * g
            assert rebuilt == f
            for _, mono in result.remainder.terms:
                assert not any(divides(g.leading_monomial, mono, ring.guards) for g in divisors)
            if f:
                for a, g in zip(result.quotients, divisors):
                    if a:
                        prod = a * g
                        assert ring.key(prod.leading_monomial) <= ring.key(f.leading_monomial)


def test_determinism():
    rng = random.Random(3)
    ring = Ring(3, 3, Order.DEGREVLEX)
    f = random_poly(ring, rng, max_terms=8, max_deg=5)
    divisors = [random_nonzero_poly(ring, rng) for _ in range(3)]
    first = divide(f, divisors)
    second = divide(f, divisors)
    assert first == second

"""Hypothesis properties of the term arithmetic and the two reduction loops.

The monomial operations are checked against their componentwise
definitions; merged add/sub and the TermAccumulator against Ring.poly, the
normalizing constructor, as the reference; division and Mora reduction
against their contracts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codegb import monomials
from codegb.division import divide
from codegb.monomials import Order, divides
from codegb.mora import weak_normal_form
from codegb.poly import Ring, TermAccumulator, ecart

PRIMES = (2, 3, 5, 7)
GLOBAL_ORDERS = (Order.LEX, Order.DEGLEX, Order.DEGREVLEX)

FAST = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def rings(draw, orders=tuple(Order)):
    return Ring(draw(st.sampled_from(PRIMES)), draw(st.integers(1, 3)), draw(st.sampled_from(orders)))


def raw_terms(ring, max_terms=8, max_exp=3, min_deg=0):
    mono = st.tuples(*[st.integers(0, max_exp)] * ring.n).filter(lambda m: sum(m) >= min_deg)
    return st.lists(st.tuples(st.integers(-ring.p, 2 * ring.p), mono), max_size=max_terms)


def polys(draw, ring, **kwargs):
    return ring.poly(draw(raw_terms(ring, **kwargs)))


def nonzero_polys(draw, ring, **kwargs):
    return polys(draw, ring, **kwargs) or ring.variable(1)


@st.composite
def monomial_pairs(draw):
    n = draw(st.integers(1, 6))
    exps = st.tuples(*[st.integers(0, 9)] * n)
    return draw(exps), draw(exps)


@FAST
@given(monomial_pairs())
def test_monomial_ops_are_componentwise(args):
    a, b = args
    assert monomials.mul(a, b) == tuple(x + y for x, y in zip(a, b))
    assert monomials.lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
    assert monomials.divides(a, b) == all(x <= y for x, y in zip(a, b))
    if monomials.divides(a, b):
        assert monomials.quotient(b, a) == tuple(y - x for x, y in zip(a, b))
    else:
        with pytest.raises(ValueError):
            monomials.quotient(b, a)
    assert monomials.quotient(monomials.mul(a, b), a) == b


@FAST
@given(monomial_pairs(), st.integers(1, 3))
def test_monomial_ops_reject_length_mismatch(args, extra):
    a, b = args
    longer = b + (0,) * extra
    for op in (monomials.mul, monomials.divides, monomials.quotient, monomials.lcm):
        with pytest.raises(ValueError):
            op(a, longer)
        with pytest.raises(ValueError):
            op(longer, a)


@st.composite
def ring_and_pair(draw):
    ring = draw(rings())
    return ring, polys(draw, ring), polys(draw, ring)


@FAST
@given(ring_and_pair())
def test_merge_add_sub_match_ring_poly(args):
    ring, f, g = args
    p = ring.p
    assert f + g == ring.poly(f.terms + g.terms)
    assert f - g == ring.poly(f.terms + tuple((p - c, m) for c, m in g.terms))
    assert g + f == f + g


@FAST
@given(ring_and_pair())
def test_merge_full_cancellation(args):
    ring, f, g = args
    assert (f - f).is_zero
    assert (f + (-f)).is_zero
    assert (f + g) - g == f


@FAST
@given(ring_and_pair(), st.integers(-20, 20))
def test_merge_with_int_operands(args, k):
    ring, f, _ = args
    const = ring.poly([(k, monomials.one(ring.n))])
    assert f + k == k + f == ring.poly(f.terms + const.terms)
    assert f - k == ring.poly(f.terms + ((-k, monomials.one(ring.n)),))


@FAST
@given(ring_and_pair())
def test_mixed_rings_rejected(args):
    ring, f, g = args
    other = Ring(ring.p, ring.n, Order.NEGDEGLEX if ring.order is Order.LEX else Order.LEX)
    g = other.convert(g)
    with pytest.raises(ValueError, match="mixed"):
        f + g
    with pytest.raises(ValueError, match="mixed"):
        f - g


@st.composite
def accumulator_runs(draw):
    ring = draw(rings())
    start = polys(draw, ring)
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, ring.p - 1),
                st.tuples(*[st.integers(0, 2)] * ring.n),
                st.integers(0, 3),
            ),
            max_size=6,
        )
    )
    gs = [polys(draw, ring, max_terms=4) for _ in range(4)]
    return ring, start, [(c, q, gs[i]) for c, q, i in steps]


@FAST
@given(accumulator_runs())
def test_accumulator_matches_polynomial_arithmetic(args):
    ring, start, steps = args
    acc = TermAccumulator(ring, start.terms)
    expected = start
    for c, q, g in steps:
        acc.add_multiple(c, q, g)
        expected = expected + g.mul_term(c, q)
        assert acc.to_poly() == expected
        assert bool(acc) == bool(expected)
        if expected:
            assert acc.leading_term() == expected.leading_term
            assert acc.ecart() == ecart(expected)
    popped = []
    while acc:
        popped.append(acc.pop_leading())
    assert tuple(popped) == expected.terms


@st.composite
def global_division(draw):
    ring = draw(rings(GLOBAL_ORDERS))
    f = polys(draw, ring, max_terms=8, max_exp=4)
    divisors = [nonzero_polys(draw, ring, max_terms=4) for _ in range(draw(st.integers(1, 3)))]
    return f, divisors


@FAST
@given(global_division())
def test_divide_contract(args):
    f, divisors = args
    result = divide(f, divisors)
    total = result.remainder
    for q, g in zip(result.quotients, divisors):
        total = total + q * g
        if q and f:
            assert f.ring.key((q * g).leading_monomial) <= f.ring.key(f.leading_monomial)
    assert total == f
    for _, m in result.remainder.terms:
        assert not any(divides(g.leading_monomial, m) for g in divisors)


@st.composite
def local_reduction(draw):
    ring = draw(rings((Order.NEGDEGLEX,)))
    f = polys(draw, ring, max_terms=6)
    divisors = [
        nonzero_polys(draw, ring, max_terms=3, min_deg=1) for _ in range(draw(st.integers(1, 3)))
    ]
    return f, divisors


@FAST
@given(local_reduction())
def test_mora_certificate_identity(args):
    f, divisors = args
    try:
        result = weak_normal_form(f, divisors, max_steps=500)
    except ValueError:
        return  # adversarial draw: the step budget ran out
    acc = result.unit * f
    for a, g in zip(result.coefficients, divisors):
        acc = acc - a * g
    assert acc == result.normal_form
    assert result.unit.leading_term == (1, monomials.one(f.ring.n))
    if result.normal_form:
        lm = result.normal_form.leading_monomial
        assert not any(divides(g.leading_monomial, lm) for g in divisors)

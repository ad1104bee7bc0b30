"""Hypothesis properties of the term arithmetic and the two reduction loops.

The packed monomial words are checked against the tuple reference in
helpers, in all four orders and at all three field widths, up to the top of
the exponent range; merged add/sub and the TermAccumulator against
Ring.poly, the normalizing constructor, as the reference; division and Mora
reduction against their contracts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codegb import monomials
from codegb.division import divide
from codegb.monomials import Order, divides
from codegb.mora import weak_normal_form
from codegb.poly import Ring, TermAccumulator, ecart

from helpers import (
    compare,
    exponent_terms,
    ref_degree,
    ref_divides,
    ref_lcm,
    ref_mul,
    ref_quotient,
)

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


# one prime per field width: 16 bits up to p = 16381, 32 bits up to 2^30, then 64
WIDTH_PRIMES = {16: (2, 7, 16381), 32: (16411, 1073741789), 64: (1073741827, 2**61 - 1)}


@st.composite
def monomial_pairs(draw):
    width = draw(st.sampled_from(sorted(WIDTH_PRIMES)))
    p = draw(st.sampled_from(WIDTH_PRIMES[width]))
    ring = Ring(p, draw(st.integers(1, 6)), draw(st.sampled_from(list(Order))))
    assert ring.width == width
    bound = ring.bound
    # small exponents meet often; exponents at the top of the range overflow in products
    exponent = st.one_of(st.integers(0, 3), st.integers(bound - 3, bound), st.integers(0, bound))
    exps = st.tuples(*[exponent] * ring.n)
    return ring, draw(exps), draw(exps)


@FAST
@given(monomial_pairs())
def test_monomial_ops_are_componentwise(args):
    ring, a, b = args
    guards = ring.guards
    wa, wb = ring.encode(a), ring.encode(b)
    assert ring.decode(wa) == a and ring.exponents(wb) == b
    assert (wa == wb) == (a == b)
    ka, kb = ring.key(wa), ring.key(wb)
    assert (ka > kb) - (ka < kb) == compare(ring.order, a, b)
    assert ring.heap_key(wa) == -ring.key(wa)
    assert ring.degree(wa) == ref_degree(a)
    assert monomials.lcm(wa, wb, ring) == ring.encode(ref_lcm(a, b))
    assert monomials.coprime(wa, wb, ring) == (not any(x and y for x, y in zip(a, b)))
    assert monomials.divides(wa, wb, guards) == ref_divides(a, b)
    if ref_divides(a, b):
        assert monomials.quotient(wb, wa, guards) == ring.encode(ref_quotient(b, a))
    else:
        with pytest.raises(ValueError):
            monomials.quotient(wb, wa, guards)
    product = ref_mul(a, b)
    if max(product) <= ring.bound:
        assert wa + wb == ring.encode(product)
        assert ring.term(1, a).mul_term(1, wb).leading_monomial == wa + wb
        assert monomials.quotient(wa + wb, wa, guards) == wb
    else:
        with pytest.raises(ValueError, match=f"above {ring.bound}"):
            monomials.check(wa + wb, guards)
        with pytest.raises(ValueError, match=f"above {ring.bound}"):
            ring.term(1, a).mul_term(1, wb)
        with pytest.raises(ValueError, match=f"exceeds {ring.bound}"):
            ring.encode(product)


@FAST
@given(monomial_pairs(), st.integers(1, 3))
def test_monomial_ops_reject_length_mismatch(args, extra):
    ring, a, b = args
    longer = b + (0,) * extra
    with pytest.raises(ValueError, match="exponents, expected"):
        ring.encode(longer)
    with pytest.raises(ValueError, match="exponents, expected"):
        ring.poly([(1, a[1:])])
    for op in (ref_mul, ref_divides, ref_quotient, ref_lcm):
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
    assert f + g == ring.poly(exponent_terms(f) + exponent_terms(g))
    assert f - g == ring.poly(exponent_terms(f) + tuple((p - c, m) for c, m in exponent_terms(g)))
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
    assert f + k == k + f == ring.poly(exponent_terms(f) + exponent_terms(const))
    assert f - k == ring.poly(exponent_terms(f) + ((-k, monomials.one(ring.n)),))


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
    return ring, start, [(c, ring.encode(q), gs[i]) for c, q, i in steps]


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
        assert not any(divides(g.leading_monomial, m, f.ring.guards) for g in divisors)


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
    assert result.unit.leading_term == (1, monomials.ONE)
    if result.normal_form:
        lm = result.normal_form.leading_monomial
        assert not any(divides(g.leading_monomial, lm, f.ring.guards) for g in divisors)

"""Hypothesis properties of the term arithmetic and the two reduction loops.

The packed monomial words are checked against the tuple reference in
helpers, in all four orders and at all three field widths, up to the top of
the exponent range; merged add/sub, products and the TermAccumulator
against Ring.poly, the normalizing constructor, as the reference; division
and Mora reduction against their contracts. Last, a failing property run
under the project's pytest configuration must still report its counterexample.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codegb import monomials
from codegb.division import divide
from codegb.monomials import Order, divides
from codegb.mora import weak_normal_form
from codegb.poly import Polynomial, Ring, TermAccumulator, add_product

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
    assert ring.exponents(wa) == a and ring.exponents(wb) == b
    assert (wa == wb) == (a == b)
    ka, kb = ring.key(wa), ring.key(wb)
    assert (ka > kb) - (ka < kb) == compare(ring.order, a, b)
    assert ring.heap_key(wa) == -ring.key(wa)
    assert ring.degree(wa) == ref_degree(a)
    for i in range(1, ring.n + 1):
        assert ring.variable_word(i) == ring.encode(tuple(1 if j == i - 1 else 0 for j in range(ring.n)))
    assert monomials.lcm(wa, wb, ring) == ring.encode(ref_lcm(a, b))
    assert monomials.coprime(wa, wb, ring) == (not any(x and y for x, y in zip(a, b)))
    assert monomials.divides(wa, wb, guards) == ref_divides(a, b)
    if ref_divides(a, b):
        assert wb - wa == ring.encode(ref_quotient(b, a))
    product = ref_mul(a, b)
    if max(product) <= ring.bound:
        assert wa + wb == ring.encode(product)
        assert ring.term(1, a).mul_term(1, wb).leading_monomial == wa + wb
        assert monomials.divides(wa, wa + wb, guards)
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
    const = ring.poly([(k, (0,) * ring.n)])
    assert f + k == k + f == ring.poly(exponent_terms(f) + exponent_terms(const))
    assert f - k == ring.poly(exponent_terms(f) + ((-k, (0,) * ring.n),))


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


def ref_product(ring, f, g):
    """f*g by Ring.poly over all term pairs, built from exponent tuples."""
    return ring.poly(
        (c1 * c2, ref_mul(e1, e2)) for c1, e1 in exponent_terms(f) for c2, e2 in exponent_terms(g)
    )


def operands(draw, ring, variables, exponent):
    """A longer, one-term, constant or empty polynomial in the given variables."""
    kind = draw(st.sampled_from(("longer", "one-term", "constant", "empty")))
    if kind == "empty":
        return ring.zero()
    if kind == "constant":
        return ring.constant(draw(st.integers(1, ring.p - 1)))
    mono = st.tuples(*[exponent if i in variables else st.just(0) for i in range(ring.n)])
    size = 1 if kind == "one-term" else draw(st.integers(2, 8))
    monos = draw(st.lists(mono, min_size=size, max_size=size, unique=True))
    return ring.poly([(draw(st.integers(1, ring.p - 1)), m) for m in monos])


@st.composite
def product_pairs(draw):
    """Two operands in disjoint variables, or in variable sets that share one."""
    ring = draw(rings())
    f_vars = draw(st.sets(st.integers(0, ring.n - 1), min_size=1))
    g_vars = draw(st.sets(st.integers(0, ring.n - 1), min_size=1))
    if draw(st.booleans()):
        shared = draw(st.integers(0, ring.n - 1))
        f_vars.add(shared)
        g_vars.add(shared)
    else:
        g_vars -= f_vars
    exponent = st.integers(0, 2)
    return ring, operands(draw, ring, f_vars, exponent), operands(draw, ring, g_vars, exponent)


@FAST
@given(product_pairs(), st.integers(-10, 10))
def test_product_matches_ring_poly_of_all_term_pairs(args, k):
    ring, f, g = args
    expected = ref_product(ring, f, g)
    assert f * g == expected
    assert g * f == expected
    assert f * k == k * f == ring.poly((c * k, e) for c, e in exponent_terms(f))


@st.composite
def products_at_the_bound(draw):
    """A ring of any width; f in X_1..X_s with X_i^bound in a term, g in X_(s+1)..X_n."""
    width = draw(st.sampled_from(sorted(WIDTH_PRIMES)))
    ring = Ring(
        draw(st.sampled_from(WIDTH_PRIMES[width])),
        draw(st.integers(2, 4)),
        draw(st.sampled_from(list(Order))),
    )
    bound = ring.bound
    split = draw(st.integers(1, ring.n - 1))
    exponent = st.one_of(st.just(bound), st.integers(bound - 3, bound), st.integers(0, 3))
    f = operands(draw, ring, set(range(split)), exponent)
    g = operands(draw, ring, set(range(split, ring.n)), exponent)
    i = draw(st.integers(1, split))
    top = [0] * ring.n
    top[i - 1] = bound
    if ring.encode(top) not in {m for _, m in f.terms}:
        f = f + ring.term(1, top)
    return ring, f, g, i


@FAST
@given(products_at_the_bound())
def test_products_at_the_exponent_bound(args):
    ring, f, g, i = args
    # disjoint: every field of a product comes from one factor, so none exceeds the bound
    assert f * g == g * f == ref_product(ring, f, g)
    # overlapping: X_i^bound * X_i is past the bound
    with pytest.raises(ValueError, match="exponent overflow"):
        f * (g + ring.variable(i))
    with pytest.raises(ValueError, match="exponent overflow"):
        (g + ring.variable(i)) * f
    # one-term operands, on either side, go through mul_term
    x = ring.variable(i)
    with pytest.raises(ValueError, match="exponent overflow"):
        f * x
    with pytest.raises(ValueError, match="exponent overflow"):
        x * f
    for t in [ring.variable(ring.n)] + [Polynomial(ring, (term,)) for term in g.terms]:
        assert f * t == t * f == ref_product(ring, f, t)


@FAST
@given(ring_and_pair(), st.integers(-3, 3))
def test_add_product_does_not_depend_on_operand_order(args, c):
    ring, f, g = args
    start = {m: fc for fc, m in f.terms}
    for a, b in ((f.terms, g.terms), (f.terms[:1], g.terms), (f.terms, g.terms[:1]), ((), g.terms)):
        scaled = tuple((ac * c, am) for ac, am in a)  # unreduced, as Mora's ((-qc, q),)
        forward, backward = dict(start), dict(start)
        add_product(forward, scaled, b, ring)
        add_product(backward, b, scaled, ring)
        assert forward == backward
        product = ref_product(ring, Polynomial(ring, a), Polynomial(ring, b))
        assert ring._from_dict(forward) == f + product * c


@st.composite
def ring_and_small_poly(draw):
    ring = Ring(draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 2)), draw(st.sampled_from(list(Order))))
    return ring, polys(draw, ring, max_terms=4, max_exp=2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ring_and_small_poly())
def test_power_is_the_repeated_product(args):
    # from k = p on, f^k goes through the Frobenius map
    ring, f = args
    product = ring.one()
    for k in range(ring.p**2 + 2):
        assert f**k == product
        product = product * f


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
    popped = []
    while acc:
        popped.append(acc.leading_term())
        acc.drop_leading(popped[-1][1])
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


PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_reports_its_counterexample_under_the_project_config(tmp_path):
    # under filterwarnings = error, a DeprecationWarning that Hypothesis raises while it
    # builds a failure report once stopped the whole run, with no counterexample shown
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    report = re.sub(r"\nE\s+", " ", run.stdout)  # one line of what pytest prints behind "E"
    assert "Falsifying example: test_fails( x=5, )" in report, run.stdout
    assert "1 failed, 1 passed" in run.stdout

"""Packed monomials (words) and the four term orders."""

import random
from itertools import product

import pytest

from codegb import monomials
from codegb.monomials import Order, divides, lcm
from codegb.poly import Ring

from helpers import ref_lcm

ALL_ORDERS = list(Order)
GLOBAL_ORDERS = [Order.LEX, Order.DEGLEX, Order.DEGREVLEX]


def words(order, n, p=3):
    """The encoding of a ring with n variables, and its encoder."""
    ring = Ring(p, n, order)
    return ring, ring.encode


def compare(order, a, b):
    """The order of two exponent tuples, read off their words' sort keys."""
    ring, encode = words(order, len(a))
    ka, kb = ring.key(encode(a)), ring.key(encode(b))
    return (ka > kb) - (ka < kb)


def test_negdeglex_prefers_low_degree():
    # why the degree-1 leading terms win in the code-ideal standard bases
    assert compare(Order.NEGDEGLEX, (1, 0, 0, 0, 0, 0), (0, 0, 0, 2, 0, 2)) == 1


def test_negdeglex_lex_tiebreak():
    assert compare(Order.NEGDEGLEX, (2, 0), (1, 1)) == 1


def test_lex_examples():
    assert compare(Order.LEX, (0, 1), (0, 0)) == 1
    assert compare(Order.LEX, (1, 0, 0), (0, 5, 5)) == 1


def test_degrevlex_classic_case():
    # equal degree: the smaller trailing exponent wins
    assert compare(Order.DEGREVLEX, (1, 1, 0), (0, 2, 0)) == 1
    assert compare(Order.DEGREVLEX, (0, 2, 0), (0, 0, 2)) == 1


def test_is_local():
    assert Order.NEGDEGLEX.is_local
    assert not Order.LEX.is_local
    assert not Order.DEGLEX.is_local
    assert not Order.DEGREVLEX.is_local


@pytest.mark.parametrize("order", GLOBAL_ORDERS)
def test_global_orders_put_one_below_variables(order):
    for i in range(1, 5):
        assert compare(order, (0, 0, 0, 0), tuple(1 if j == i - 1 else 0 for j in range(4))) == -1


def test_local_order_puts_one_above_variables():
    for i in range(1, 5):
        assert compare(Order.NEGDEGLEX, (0, 0, 0, 0), tuple(1 if j == i - 1 else 0 for j in range(4))) == 1


def test_constant_is_maximum_under_negdeglex():
    ring, encode = words(Order.NEGDEGLEX, 3)
    bounded = [encode(m) for m in product(range(5), repeat=3) if sum(m) <= 4]
    assert max(bounded, key=ring.key) == monomials.ONE == encode((0, 0, 0))


def test_divisibility_helpers():
    ring, encode = words(Order.LEX, 2)
    guards = ring.guards
    assert divides(encode((1, 0)), encode((1, 2)), guards)
    assert not divides(encode((2, 0)), encode((1, 2)), guards)
    assert lcm(encode((2, 0)), encode((1, 1)), ring) == encode((2, 1))
    assert encode((2, 2)) - encode((1, 0)) == encode((1, 2))


def lcm_cases(bound):
    """Pairs (a, b) whose degrees add up to 2^w - 3 .. 2^w and 6 * bound, for fields of w bits.

    The exponents reach the bound 2^(w-1) - 1, and 2^w - 1 = 2 * bound + 1.
    The lcm of a coprime pair has degree deg(a) + deg(b).
    """
    return [
        ((bound, 0, 0), (0, bound - 1, 0)),  # 2^w - 3, coprime
        ((bound, 0, 0), (0, bound, 0)),  # 2^w - 2, coprime
        ((bound, 0, 1), (0, bound, 0)),  # 2^w - 1, coprime: the lcm's word is 0 mod 2^w - 1
        ((bound, 0, 1), (0, bound, 1)),  # 2^w: the lcm has degree 2^w - 1
        ((bound, bound, bound), (bound, bound, bound)),  # the lcm has degree 2^w + bound - 2
    ]


@pytest.mark.parametrize("p", [3, 16411, 2**61 - 1])  # fields of 16, 32 and 64 bits
@pytest.mark.parametrize("order", ALL_ORDERS)
def test_lcm_reads_its_degree_mod_2_to_the_w_minus_1_below_it_and_unpacks_above(
    monkeypatch, order, p
):
    # lex words carry no degree and never unpack; the other orders read the
    # degree as the word mod 2^w - 1 while deg(a) + deg(b) is below 2^w - 1
    # and unpack the exponents from there up
    ring, encode = words(order, 3, p)
    modulus = (1 << ring.width) - 1
    unpacked = []
    exponents = monomials.Encoding.exponents

    def counted(self, word):
        unpacked.append(word)
        return exponents(self, word)

    for a, b in lcm_cases(ring.bound):
        wa, wb = encode(a), encode(b)
        with monkeypatch.context() as patch:
            patch.setattr(monomials.Encoding, "exponents", counted)
            gamma = lcm(wa, wb, ring)
            assert lcm(wb, wa, ring) == gamma
        assert gamma == encode(ref_lcm(a, b))
        below = sum(a) + sum(b) < modulus
        assert len(unpacked) == (0 if order is Order.LEX or below else 2), (a, b)
        unpacked.clear()


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="exponents, expected 2"):
        compare(Order.LEX, (1, 0), (1, 0, 0))
    for order in ALL_ORDERS:
        _, encode = words(order, 2)
        with pytest.raises(ValueError):
            encode((1,))
        with pytest.raises(ValueError):
            encode((1, 0, 0))


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_total_order_properties(order):
    rng = random.Random(20240901)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = tuple(rng.randrange(6) for _ in range(n))
        b = tuple(rng.randrange(6) for _ in range(n))
        c = compare(order, a, b)
        assert c in (-1, 0, 1)
        assert (c == 0) == (a == b)
        assert compare(order, b, a) == -c


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_transitivity(order):
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 4)
        ring, encode = words(order, n)
        triple = [tuple(rng.randrange(5) for _ in range(n)) for _ in range(3)]
        a, b, c = sorted(triple, key=lambda m: ring.key(encode(m)))
        assert compare(order, a, b) <= 0
        assert compare(order, b, c) <= 0
        assert compare(order, a, c) <= 0


@pytest.mark.parametrize("order", ALL_ORDERS)
def test_compatible_with_multiplication(order):
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(1, 5)
        ring, encode = words(order, n)
        a, b, gamma = (encode([rng.randrange(5) for _ in range(n)]) for _ in range(3))
        key = ring.key
        shifted = a + gamma, b + gamma
        assert (key(shifted[0]) > key(shifted[1])) == (key(a) > key(b))
        assert (shifted[0] == shifted[1]) == (a == b)


@pytest.mark.parametrize("order", ALL_ORDERS)
@pytest.mark.parametrize("p", [3, 16411, 2147483647])  # 16-, 32- and 64-bit fields
def test_field_mask_covers_exactly_the_fields_of_its_variables(order, p):
    for n in (1, 2, 3, 5):
        ring, encode = words(order, n, p)
        width = ring.width
        fields = []  # a per-field reference: the field under the lowest bit of X_(i+1)'s exponent
        for i in range(n):
            low = (encode(tuple(int(j == i) for j in range(n))) & ring.fields).bit_length() - 1
            assert low % width == 0
            fields.append(((1 << width) - 1) << low)
        for lo in range(n + 1):
            assert ring.field_mask(lo, lo) == 0
            for hi in range(lo, n + 1):
                assert ring.field_mask(lo, hi) == sum(fields[lo:hi])
        assert ring.field_mask(0, n) == ring.fields
        word = encode(tuple(range(n)))
        for i in range(n):
            assert bool(word & ring.field_mask(i, i + 1)) == bool(i)

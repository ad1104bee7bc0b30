"""Primality, prime-field inverses and binomial rows mod p."""

import math

import pytest
import sympy

from codegb.gfp import PrimeField, is_prime


# strong pseudoprimes to base 2 (2047), to bases 2, 3, 5 (3215031751) and to
# every prime base up to 37 (the last one), plus Carmichael numbers
PSEUDOPRIMES = [2047, 3215031751, 318665857834031151167461, 561, 1105, 1729, 2465, 8911, 41041, 825265]


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(101)
    assert not is_prime(1001)
    for n in list(range(10**4)) + PSEUDOPRIMES + [2**61 - 1, 10**18 + 3, 10**18 + 9]:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_moduli_beyond_its_exact_range():
    assert is_prime(3317044064679887385961979) == sympy.isprime(3317044064679887385961979)
    with pytest.raises(ValueError, match="modulus too large"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="modulus too large"):
        PrimeField(10**29 + 7)


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 1001])
def test_nonprime_modulus_rejected(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_inverse_examples():
    assert PrimeField(5).inv(2) == 3
    assert PrimeField(7).inv(4) == 2
    for p in (2, 3, 5, 7, 101):
        assert PrimeField(p).inv(1) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_inverses_exhaustive(p):
    field = PrimeField(p)
    for a in range(1, p):
        assert a * field.inv(a) % p == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_binom_examples():
    assert PrimeField(3).binom(0) == [1]
    assert PrimeField(3).binom(2) == [1, 2, 1]
    assert PrimeField(7).binom(3) == [1, 3, 3, 1]
    assert PrimeField(5).binom(4) == [1, 4, 1, 4, 1]  # C(4, t) = 4, 6 reduce mod 5


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
def test_binom_matches_math_comb(p):
    field = PrimeField(p)
    for c in range(p):
        assert field.binom(c) == [math.comb(c, t) % p for t in range(c + 1)]


def test_binom_rows_at_large_primes():
    # caps far from both 0 and p - 1, where a row is long or its entries are large
    for p, caps in ((4001, (1, 2, 672, 2667)), (2**61 - 1, (1, 5, 64, 1000))):
        field = PrimeField(p)
        for c in caps:
            assert field.binom(c) == [math.comb(c, t) % p for t in range(c + 1)], (p, c)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
def test_binom_row_sum(p):
    field = PrimeField(p)
    for c in range(p):
        assert sum(field.binom(c)) % p == pow(2, c, p)


@pytest.mark.parametrize("p", [2, 5, 4001])
def test_binom_row_outside_the_field_rejected(p):
    field = PrimeField(p)
    for c in (-1, p):
        with pytest.raises(ValueError, match=rf"binomial row {c} is outside \[0, {p}\)"):
            field.binom(c)

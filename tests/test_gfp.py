"""Primality, prime-field inverses and binomial coefficients mod p."""

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert PrimeField(3).binom(3, 1) == 0  # C(p, j) vanishes mod p
    assert PrimeField(3).binom(2, 1) == 2
    assert PrimeField(5).binom(2, 3) == 0  # t > m
    for p in (2, 3, 5):
        field = PrimeField(p)
        for m in range(p + 1):
            assert field.binom(m, 0) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_binom_matches_math_comb(p):
    field = PrimeField(p)
    for m in range(p + 1):
        for t in range(p + 2):
            assert field.binom(m, t) == math.comb(m, t) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binom_row_sum(p):
    field = PrimeField(p)
    for m in range(p + 1):
        row_sum = sum(field.binom(m, t) for t in range(m + 1)) % p
        assert row_sum == pow(2, m, p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from((2, 3, 5, 7, 13, 101, 4001, 2**61 - 1)),
    st.integers(0, 3000),
    st.integers(0, 3100),
)
def test_binom_matches_math_comb_across_base_p_digits(p, m, t):
    # m >= p takes Lucas' theorem over several base-p digits, t > m gives 0
    assert PrimeField(p).binom(m, t) == math.comb(m, t) % p


def test_binom_negative_arguments_rejected():
    field = PrimeField(5)
    with pytest.raises(ValueError):
        field.binom(-1, 0)
    with pytest.raises(ValueError):
        field.binom(3, -2)

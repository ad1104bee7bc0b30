"""Exact arithmetic in the prime field F_p.

Field elements are plain Python ints in [0, p); the modulus is carried by
a shared PrimeField context instead of per-element storage. Mismatched
contexts are caught where two contexts meet (see poly.Ring). Besides
inverses, the field builds whole binomial rows C(c, 0..c) mod p for c < p:
the closed-form standard basis takes one row per support variable, and a
row costs O(c).
"""

from __future__ import annotations

from collections import namedtuple


# No composite below _BOUND is a strong probable prime to all of the prime
# bases 2..41 (Sorenson and Webster, Math. Comp. 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact below 3.3 * 10^24; ValueError above."""
    if n >= _BOUND:
        raise ValueError("modulus too large")
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x != 1 and not any(pow(x, 1 << r, n) == n - 1 for r in range(s)):
            return False
    return True


class PrimeField(namedtuple("PrimeField", "p")):
    """Ambient context for exact arithmetic mod a prime p (an int)."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks as well
        return cls(*iterable)

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero residue."""
        # one field read: CPython does not specialize named-tuple field reads,
        # and inv runs once per reduction step
        p = self.p
        if a % p == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{p}")
        return pow(a, p - 2, p)

    def binom(self, c: int) -> list[int]:
        """The binomial row [C(c, 0), ..., C(c, c)] mod p, for 0 <= c < p.

        A running product C(c, t) = C(c, t - 1) * (c - t + 1) / t, so a row
        costs O(c) operations mod p; every t <= c < p is a unit mod p.
        """
        p = self.p
        if not 0 <= c < p:
            raise ValueError(f"binomial row {c} is outside [0, {p})")
        row = [1]
        for t in range(1, c + 1):
            row.append(row[-1] * (c - t + 1) * pow(t, -1, p) % p)
        return row

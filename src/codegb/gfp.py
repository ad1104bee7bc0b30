"""Exact arithmetic in the prime field F_p.

Field elements are plain Python ints in [0, p); the modulus is carried by
a shared PrimeField context instead of per-element storage. Mismatched
contexts are caught where two contexts meet (see poly.Ring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def is_prime(n: int) -> bool:
    """Trial-division primality check, intended for moduli up to a few thousand."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """Ambient context for exact arithmetic mod a prime p."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def element(self, a: int) -> int:
        """Canonical residue of an arbitrary int."""
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero residue."""
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def binom(self, m: int, t: int) -> int:
        """Binomial coefficient C(m, t) reduced mod p; 0 when t > m."""
        if m < 0 or t < 0:
            raise ValueError("binomial coefficient arguments must be non-negative")
        return math.comb(m, t) % self.p

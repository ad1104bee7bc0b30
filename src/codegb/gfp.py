"""Exact arithmetic in the prime field F_p.

Field elements are plain Python ints in [0, p); the modulus is carried by
a shared PrimeField context instead of per-element storage. Mismatched
contexts are caught where two contexts meet (see poly.Ring).
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class PrimeField:
    """Ambient context for exact arithmetic mod a prime p."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero residue."""
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def binom(self, m: int, t: int) -> int:
        """Binomial coefficient C(m, t) reduced mod p; 0 when t > m.

        Lucas' theorem: C(m, t) is the product of C(m_i, t_i) over the base-p
        digits of m and t, so m < p takes one digit. Each digit's factor is
        the multiplicative formula C(top, s) with s factors above and below,
        all mod p, and one inverse (no factor below is 0 mod p). s is the
        least of t_i, m_i - t_i and p - 1 - m_i: for t_i < p, C(x, t_i) mod p
        depends on x mod p only, so C(m_i, t_i) = C(-g, t_i) =
        (-1)^t_i C(t_i + g - 1, g - 1) for g = p - m_i.
        """
        if m < 0 or t < 0:
            raise ValueError("binomial coefficient arguments must be non-negative")
        p = self.p
        result = 1
        while t:
            (m, mi), (t, ti) = divmod(m, p), divmod(t, p)
            if ti > mi:
                return 0
            s, top, sign = min(ti, mi - ti), mi, 1
            if p - 1 - mi < s:
                s = p - 1 - mi
                top, sign = ti + s, -1 if ti & 1 else 1
            above = below = 1
            for i in range(1, s + 1):
                above = above * (top - s + i) % p
                below = below * i % p
            result = result * sign * above * pow(below, -1, p) % p
        return result

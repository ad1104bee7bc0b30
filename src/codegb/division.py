"""Multivariate division with remainder, for global (monomial) orders only.

The loop mirrors the classical algorithm: at each step the first divisor
whose leading monomial divides the current leading monomial wins; when
none does, the leading term moves to the remainder. A global order is a
well-order on monomials, so the loop always terminates.

The dividend being reduced lives in a poly.TermAccumulator, which states
what a reduction step and a move to the remainder cost. Monomials are the
ring's packed words (see monomials): divides is one subtraction and one
mask, and the quotient lm - glm it admits is one subtraction. Leading
monomials strictly decrease from step to step, so the quotient and
remainder terms come out already sorted and distinct.

The divisors are a poly.DivisorBasis, which checked each one's ring and
read its leading word once, when it joined. divide takes one as it is,
after one ring test of f, and prepares any other sequence first: one pass
that tests each divisor's ring (by identity) and each for zero, and reads
its leading word. In Buchberger's loop a binomial divides in one or two
steps by some twenty divisors, so that pass would be most of a call; the
completion keeps one prepared basis instead, which grows with it. A call
on a prepared basis costs its steps, each a scan of the leading words up
to the first that divides, and a tuple of one quotient per divisor.
Quotient terms are collected only for divisors that reduce; the others
share one zero Polynomial.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence

from . import monomials
from .poly import DivisorBasis, Polynomial, TermAccumulator


class DivisionResult(namedtuple("DivisionResult", "quotients remainder")):
    """f = sum(quotients[i] * divisors[i]) + remainder, exactly.

    quotients is a tuple of Polynomials, one per divisor; remainder is a Polynomial.
    """

    __slots__ = ()


def divide(
    f: Polynomial,
    divisors: Sequence[Polynomial],
    *,
    trace: Callable[[str], None] | None = None,
) -> DivisionResult:
    """Divide f by an ordered sequence of nonzero divisors.

    Returns quotients a_i and remainder r with f = sum a_i f_i + r, no
    monomial of r divisible by any leading monomial of the divisors, and
    lt(a_i f_i) <= lt(f) whenever a_i f_i is nonzero. Divisor order
    matters: the first divisor whose leading monomial matches is used. A
    poly.DivisorBasis is used as it is; any other sequence is prepared as
    one first, with the same results.
    """
    ring = f.ring
    if ring.order.is_local:
        raise ValueError(
            "divide requires a global order; use mora.weak_normal_form for local orders"
        )
    divisors = DivisorBasis.of(f, divisors)

    divides, guards, inv, p = monomials.divides, ring.guards, ring.field.inv, ring.p
    leading = divisors.leading
    quotient_terms: dict[int, list] = {}
    remainder_terms = []
    h = TermAccumulator(ring, f.terms)
    for lc, lm in h.leading_terms():
        for idx, glm in enumerate(leading):
            if divides(glm, lm, guards):
                g = divisors[idx]
                qc = lc * inv(g.terms[0][0]) % p
                qm = lm - glm
                quotient_terms.setdefault(idx, []).append((qc, qm))
                h.add_multiple(-qc, qm, g)
                if trace:
                    trace(f"reduce {Polynomial(ring, ((lc, lm),))!s} by divisor {idx}: {g!s}")
                break
        else:
            remainder_terms.append((lc, lm))
            h.drop_leading(lm)
            if trace:
                trace(f"move {Polynomial(ring, ((lc, lm),))!s} to the remainder")

    quotients = [ring.zero()] * len(divisors)
    for idx, terms in quotient_terms.items():
        quotients[idx] = Polynomial(ring, tuple(terms))
    return DivisionResult(tuple(quotients), Polynomial(ring, tuple(remainder_terms)))

"""Multivariate division with remainder, for global (monomial) orders only.

The loop mirrors the classical algorithm: at each step the first divisor
whose leading monomial divides the current leading monomial wins; when
none does, the leading term moves to the remainder. A global order is a
well-order on monomials, so the loop always terminates.

The dividend being reduced lives in a poly.TermAccumulator, not in a
Polynomial, so a step costs O(|g| log |h|) for a divisor g and the current
dividend h. Leading monomials strictly decrease from step to step, so the
quotient and remainder terms come out already sorted and distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import monomials
from .poly import Polynomial, TermAccumulator


@dataclass(frozen=True)
class DivisionResult:
    """f = sum(quotients[i] * divisors[i]) + remainder, exactly."""

    quotients: tuple[Polynomial, ...]
    remainder: Polynomial


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
    matters: the first divisor whose leading monomial matches is used.
    """
    ring = f.ring
    if ring.order.is_local:
        raise ValueError(
            "divide requires a global order; use mora.weak_normal_form for local orders"
        )
    divisors = list(divisors)
    for g in divisors:
        f._check_ring(g)
        if g.is_zero:
            raise ValueError("divisors must be nonzero")

    quotient_terms: list[list] = [[] for _ in divisors]
    remainder_terms = []
    h = TermAccumulator(ring, f.terms)
    while h:
        lc, lm = h.leading_term()
        for idx, g in enumerate(divisors):
            if monomials.divides(g.leading_monomial, lm):
                qc = lc * ring.field.inv(g.leading_coefficient) % ring.p
                qm = monomials.quotient(lm, g.leading_monomial)
                quotient_terms[idx].append((qc, qm))
                h.add_multiple(-qc, qm, g)
                if trace:
                    trace(f"reduce {ring.term(lc, lm)!s} by divisor {idx}: {g!s}")
                break
        else:
            remainder_terms.append(h.pop_leading())
            if trace:
                trace(f"move {ring.term(lc, lm)!s} to the remainder")

    quotients = tuple(Polynomial(ring, tuple(terms)) for terms in quotient_terms)
    return DivisionResult(quotients, Polynomial(ring, tuple(remainder_terms)))

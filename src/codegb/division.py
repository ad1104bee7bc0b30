"""Multivariate division with remainder, for global (monomial) orders only.

The loop mirrors the classical algorithm: at each step the first divisor
whose leading monomial divides the current leading monomial wins; when
none does, the leading term moves to the remainder. A global order is a
well-order on monomials, so the loop always terminates.

The dividend being reduced lives in a poly.TermAccumulator, not in a
Polynomial, so a step costs O(|g| log |h|) for a divisor g and the current
dividend h. Monomials are the ring's packed words (see monomials): divides
is one subtraction and one mask, and the quotient lm - glm it admits is one
subtraction. Leading monomials strictly decrease from step to step, so the
quotient and remainder terms come out already sorted and distinct.

A call's fixed cost is one pass over the divisors: poly.check_divisors (a
ring identity test, equal but distinct rings still passing, and a zero
test) and a read of the leading word from g.terms. Quotient terms are
collected only for divisors that reduce; the others share one zero
Polynomial. In Buchberger's loop, where a binomial divides in one or two
steps by some twenty divisors, that set-up is most of a call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import monomials
from .poly import Polynomial, TermAccumulator, check_divisors


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
    divisors = check_divisors(f, divisors)

    divides, guards, inv, p = monomials.divides, ring.guards, ring.field.inv, ring.p
    leading = [g.terms[0][1] for g in divisors]
    quotient_terms: dict[int, list] = {}
    remainder_terms = []
    h = TermAccumulator(ring, f.terms)
    while h:
        lc, lm = h.leading_term()
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

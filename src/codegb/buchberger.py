"""Buchberger's algorithm under global orders; complete() and minimalize() under both kinds.

complete() is the package's one pair-completion loop: groebner runs it with
division, mora.standard_basis with weak normal forms. Its heap pops the pair
whose lcm is smallest under the active order first (the normal strategy),
ties broken by the smaller index pair, which makes runs reproducible. Each
pair meets the product criterion once, as it is formed: a pair with
coprime leading monomials is skipped there, since its S-polynomial always
reduces to zero, and gets no lcm and no heap entry. Every other pair's lcm
is taken once, for its heap key, and a popped pair's S-polynomial is formed
from that key (ring.key is its own inverse) with no second lcm.

Each caller hands complete() its basis prepared for its normal form, and
complete() grows it by append: groebner a poly.DivisorBasis, which checks
each element and reads its leading word once, as it joins, so no division
repeats that set-up (see division); mora.standard_basis a prepared reducer
basis (see mora).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Sequence

from . import monomials
from .division import divide
from .poly import DivisorBasis, Polynomial, _s_polynomial


def product_criterion(f: Polynomial, g: Polynomial) -> bool:
    """True when lcm(lm f, lm g) = lm(f)*lm(g); such pairs need no reduction."""
    if not f.terms or not g.terms:
        raise ValueError("product criterion needs nonzero polynomials")
    f._check_ring(g)
    return monomials.coprime(f.terms[0][1], g.terms[0][1], f.ring)


def _prepare(gens: Iterable[Polynomial]) -> list[Polynomial]:
    """The nonzero generators, checked to share one ring, each made monic."""
    basis = [g for g in gens if g]
    for g in basis:
        basis[0]._check_ring(g)
    return [g.monic() for g in basis]


def complete(
    basis: list[Polynomial],
    normal_form: Callable[[Polynomial, list[Polynomial]], Polynomial],
    trace: Callable[[str], None] | None,
) -> list[Polynomial]:
    """Extend a nonempty monic basis of one ring in place until every S-pair reduces to zero.

    normal_form(s, basis) reduces an S-polynomial by the current basis;
    each nonzero result is made monic and appended, and its pairs with
    every earlier element join the queue. Returns basis.
    """
    ring = basis[0].ring
    pairs: list[tuple] = []

    def queue_pairs(j: int) -> None:
        g = basis[j]
        lm = g.terms[0][1]
        for i in range(j):
            f = basis[i]
            if not product_criterion(f, g):
                gamma = monomials.lcm(f.terms[0][1], lm, ring)
                heapq.heappush(pairs, (ring.key(gamma), i, j))

    for j in range(len(basis)):
        queue_pairs(j)
    while pairs:
        key, i, j = heapq.heappop(pairs)
        s = _s_polynomial(basis[i], basis[j], ring.key(key))
        if not s:
            continue
        r = normal_form(s, basis)
        if r:
            r = r.monic()
            if trace:
                trace(f"pair ({i}, {j}) adds basis element {r!s}")
            basis.append(r)
            queue_pairs(len(basis) - 1)
    return basis


def groebner(
    gens: Iterable[Polynomial],
    *,
    trace: Callable[[str], None] | None = None,
) -> list[Polynomial]:
    """Complete generators to a Groebner basis (not reduced; see reduce_basis).

    Every pairwise S-polynomial of the output divides to remainder zero by
    the output, so it generates the same ideal with the extra leading-term
    coverage a Groebner basis promises.
    """
    basis = _prepare(gens)
    if not basis:
        raise ValueError("need at least one nonzero generator")
    if basis[0].ring.order.is_local:
        raise ValueError(
            "Buchberger runs under global orders; use mora.standard_basis for local orders"
        )
    return list(complete(DivisorBasis(basis), lambda s, b: divide(s, b).remainder, trace))


def minimalize(basis: Sequence[Polynomial]) -> list[Polynomial]:
    """Drop elements whose leading monomial another element's divides.

    Works under any order: candidates are scanned in ascending total
    degree, so divisors are always seen before their multiples. The result
    is monic and sorted descending by leading monomial.
    """
    kept: list[Polynomial] = []
    candidates = _prepare(basis)
    if not candidates:
        return []
    ring = candidates[0].ring
    candidates.sort(key=lambda g: (ring.degree(g.leading_monomial), ring.key(g.leading_monomial)))
    for g in candidates:
        lm = g.leading_monomial
        if not any(monomials.divides(k.leading_monomial, lm, ring.guards) for k in kept):
            kept.append(g)
    kept.sort(key=lambda g: ring.key(g.leading_monomial), reverse=True)
    return kept


def reduce_basis(basis: Iterable[Polynomial]) -> list[Polynomial]:
    """The unique reduced Groebner basis of the ideal a Groebner basis spans.

    Minimalizes, then tail-reduces each element against the others; no
    monomial of any output element is divisible by another output
    element's leading monomial. The minimal basis is prepared once, and
    each element's tail is divided by all of it: every term of that
    division is below the element's leading monomial, which therefore
    divides none of them, so the steps and the remainder are those of a
    division by the others. Minimal elements are monic, and so is the result.
    """
    minimal = minimalize(basis)
    divisors = DivisorBasis(minimal)
    reduced = []
    for f in minimal:
        tail = divide(Polynomial(f.ring, f.terms[1:]), divisors).remainder
        reduced.append(Polynomial(f.ring, (f.terms[0], *tail.terms)))
    return reduced

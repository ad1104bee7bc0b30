"""Buchberger's algorithm and basis post-processing under global orders.

Pair selection follows the normal strategy: the pair whose lcm is
smallest under the active order goes first, ties broken by the smaller
index pair, which makes runs reproducible. Coprime-leading-monomial pairs
are skipped outright since their S-polynomials always reduce to zero.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from . import monomials
from .division import divide
from .poly import Polynomial, s_polynomial


def product_criterion(f: Polynomial, g: Polynomial) -> bool:
    """True when lcm(lm f, lm g) = lm(f)*lm(g); such pairs need no reduction."""
    if f.is_zero or g.is_zero:
        raise ValueError("product criterion needs nonzero polynomials")
    return all(x == 0 or y == 0 for x, y in zip(f.leading_monomial, g.leading_monomial))


def _prepare(gens: Iterable[Polynomial]) -> list[Polynomial]:
    basis = [g for g in gens if g]
    for g in basis:
        basis[0]._check_ring(g)
    return [g.monic() for g in basis]


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
    ring = basis[0].ring
    if ring.order.is_local:
        raise ValueError(
            "Buchberger runs under global orders; use mora.standard_basis for local orders"
        )

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}

    def pair_key(pair):
        i, j = pair
        gamma = monomials.lcm(basis[i].leading_monomial, basis[j].leading_monomial)
        return (ring.key(gamma), i, j)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        if product_criterion(basis[i], basis[j]):
            continue
        s = s_polynomial(basis[i], basis[j])
        if not s:
            continue
        r = divide(s, basis).remainder
        if r:
            r = r.monic()
            if trace:
                trace(f"pair ({i}, {j}) adds basis element {r!s}")
            basis.append(r)
            t = len(basis) - 1
            pairs.update((a, t) for a in range(t))
    return basis


def minimalize(basis: Sequence[Polynomial]) -> list[Polynomial]:
    """Drop elements whose leading monomial another element's divides.

    Works under any order: candidates are scanned in ascending total
    degree, so divisors are always seen before their multiples. The result
    is monic and sorted descending by leading monomial.
    """
    kept: list[Polynomial] = []
    candidates = [g for g in basis if g]
    if not candidates:
        return []
    ring = candidates[0].ring
    candidates.sort(key=lambda g: (monomials.degree(g.leading_monomial), ring.key(g.leading_monomial)))
    for g in candidates:
        if not any(monomials.divides(k.leading_monomial, g.leading_monomial) for k in kept):
            kept.append(g.monic())
    kept.sort(key=lambda g: ring.key(g.leading_monomial), reverse=True)
    return kept


def reduce_basis(basis: Iterable[Polynomial]) -> list[Polynomial]:
    """The unique reduced Groebner basis of the ideal a Groebner basis spans.

    Minimalizes, then tail-reduces each element against the others; no
    monomial of any output element is divisible by another output
    element's leading monomial.
    """
    minimal = minimalize(basis)
    reduced = []
    for idx, f in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(divide(f, others).remainder.monic() if others else f)
    return reduced

"""Weak normal forms under local orders and standard-basis computation.

Local orders are not well-founded, so the plain division loop can reduce
forever (dividing X by X - X^2 yields X^2, X^3, ...). Mora's fix is the
ecart selection rule: always reduce by a matching divisor of minimal
ecart, and when even that divisor has larger ecart than the current
intermediate h, record h itself as an additional reducer first. The
recorded intermediates are what make the result a *weak* normal form:
instead of f = sum a_i f_i + h one gets

    u * f = a_1 f_1 + ... + a_s f_s + h

with lt(u) = 1, i.e. u is a unit of the localized ring. The unit
certificate is tracked through every reduction and returned, and
weak_normal_form verifies the identity exactly before returning; a failure
raises CertificateError, also under python -O.

h, u and the a_i live in poly.TermAccumulator objects while the loop runs,
so a step costs O(|g| log |h|) for the reducer g; they become Polynomials
only when an intermediate is recorded and at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import monomials
from .buchberger import minimalize, product_criterion
from .poly import Polynomial, TermAccumulator, ecart, s_polynomial


@dataclass(frozen=True)
class WeakNormalForm:
    """Result of Mora reduction: u*f = sum(coefficients[i]*divisors[i]) + normal_form."""

    normal_form: Polynomial
    unit: Polynomial
    coefficients: tuple[Polynomial, ...]
    recorded: int  # intermediates added to the reducer list by the ecart rule


class CertificateError(ArithmeticError):
    """A weak normal form's certificate u*f = sum(a_i f_i) + h, lt(u) = 1 does not hold."""


@dataclass(frozen=True)
class BasisCheck:
    """Outcome of a standard-basis verification, with the first failure named."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class _Reducer:
    """A reduction candidate: an original divisor or a recorded intermediate.

    Recorded intermediates carry a snapshot (unit, coeffs) of their own
    certificate h = unit*f - sum(coeffs[i]*f_i), which is what keeps the
    overall identity exact when they are used as divisors.
    """

    __slots__ = ("poly", "index", "unit", "coeffs", "ecart")

    def __init__(self, poly, index, unit, coeffs):
        self.poly = poly
        self.index = index
        self.unit = unit
        self.coeffs = coeffs
        self.ecart = ecart(poly)


def weak_normal_form(
    f: Polynomial,
    divisors: Sequence[Polynomial],
    *,
    trace: Callable[[str], None] | None = None,
    max_steps: int | None = None,
) -> WeakNormalForm:
    """Mora division of f by a sequence of nonzero divisors under a local order.

    Returns h, the unit u with lt(u) = 1, and coefficients a_i such that
    u*f = sum a_i f_i + h exactly, h = 0 or lm(h) divisible by no lm(f_i),
    and lt(a_i) * lt(f_i) <= lt(f) for every nonzero a_i. Among matching
    reducers of minimal ecart the earliest-inserted one is chosen, which
    pins the run deterministically.

    The loop terminates on every input, but on adversarial instances the
    number of steps can grow astronomically; max_steps caps the number of
    reductions and raises ValueError beyond it instead of an open-ended run.
    The certificate is verified before returning (CertificateError if not).
    """
    ring = f.ring
    if not ring.order.is_local:
        raise ValueError(
            "weak_normal_form requires a local order; use division.divide for global orders"
        )
    divisors = list(divisors)
    for g in divisors:
        f._check_ring(g)
        if g.is_zero:
            raise ValueError("divisors must be nonzero")

    one = ring.one()
    unit = TermAccumulator(ring, one.terms)
    coeffs = [TermAccumulator(ring) for _ in divisors]
    h = TermAccumulator(ring, f.terms)
    reducers = [_Reducer(g, i, None, None) for i, g in enumerate(divisors)]
    recorded = 0
    steps = 0

    while h:
        lc, lm = h.leading_term()
        matching = [r for r in reducers if monomials.divides(r.poly.leading_monomial, lm)]
        if not matching:
            break
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise ValueError(f"weak normal form exceeded {max_steps} reduction steps")
        g = min(matching, key=lambda r: r.ecart)
        h_ecart = h.ecart()
        if g.ecart > h_ecart:
            snapshot = h.to_poly()
            reducers.append(
                _Reducer(snapshot, None, unit.to_poly(), tuple(a.to_poly() for a in coeffs))
            )
            recorded += 1
            if trace:
                trace(f"record intermediate {snapshot!s} (ecart {h_ecart} < {g.ecart})")
        qc = lc * ring.field.inv(g.poly.leading_coefficient) % ring.p
        qm = monomials.quotient(lm, g.poly.leading_monomial)
        if trace:
            trace(f"reduce {ring.term(lc, lm)!s} by {g.poly!s}")
        if g.index is not None:
            coeffs[g.index].add_multiple(qc, qm, one)
        else:
            # q has monomial < 1 under a local order (lm strictly dropped
            # since g was recorded), so the unit's leading term 1 survives.
            unit.add_multiple(-qc, qm, g.unit)
            for a, b in zip(coeffs, g.coeffs):
                a.add_multiple(-qc, qm, b)
        h.add_multiple(-qc, qm, g.poly)

    result = WeakNormalForm(
        h.to_poly(), unit.to_poly(), tuple(a.to_poly() for a in coeffs), recorded
    )
    _check_certificate(f, divisors, result)
    return result


def _check_certificate(
    f: Polynomial, divisors: Sequence[Polynomial], result: WeakNormalForm
) -> None:
    """Raise CertificateError unless u*f = sum(a_i f_i) + h and lt(u) = 1 hold exactly."""
    acc = result.unit * f
    for a, g in zip(result.coefficients, divisors):
        acc = acc - a * g
    if acc != result.normal_form:
        raise CertificateError("certificate identity u*f = sum(a_i f_i) + h violated")
    if not result.unit or result.unit.leading_term != (1, monomials.one(f.ring.n)):
        raise CertificateError("unit lost its leading term 1")


def standard_basis(
    gens: Iterable[Polynomial],
    *,
    trace: Callable[[str], None] | None = None,
) -> list[Polynomial]:
    """Complete generators to a minimal standard basis under a local order.

    Same pair queue and normal selection strategy as the Buchberger loop,
    with weak normal forms replacing plain division; pairs with coprime
    leading monomials are skipped. The result is monic, minimal (no
    leading monomial divides another's) and sorted descending by leading
    monomial. Tails are not reduced; see tail_reduce for display.
    """
    basis = [g for g in gens if g]
    if not basis:
        return []
    ring = basis[0].ring
    if not ring.order.is_local:
        raise ValueError(
            "standard_basis requires a local order; use buchberger.groebner for global orders"
        )
    for g in basis:
        basis[0]._check_ring(g)
    basis = [g.monic() for g in basis]

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
        h = weak_normal_form(s, basis, trace=trace).normal_form
        if h:
            h = h.monic()
            if trace:
                trace(f"pair ({i}, {j}) adds basis element {h!s}")
            basis.append(h)
            t = len(basis) - 1
            pairs.update((a, t) for a in range(t))
    return minimalize(basis)


def is_standard_basis(
    candidate: Sequence[Polynomial],
    gens: Sequence[Polynomial],
    *,
    gens_basis: Sequence[Polynomial] | None = None,
) -> BasisCheck:
    """Check that candidate is a standard basis of the ideal gens generate.

    Two conditions: every pairwise S-polynomial of the candidate has weak
    normal form zero, and generation holds both ways (each generator
    reduces to zero against the candidate, and each candidate element
    reduces to zero against a standard basis computed from the
    generators). Pass gens_basis to reuse a precomputed basis of gens.
    """
    S = [f for f in candidate if f]
    G = [g for g in gens if g]
    if not S or not G:
        raise ValueError("candidate and generators must be nonzero sets")

    # generation first: it is cheap and fails fast when an element is missing
    for g in G:
        if weak_normal_form(g, S).normal_form:
            return BasisCheck(False, f"generator {g!s} does not reduce to zero")

    reference = list(gens_basis) if gens_basis is not None else standard_basis(G)
    for f in S:
        if weak_normal_form(f, reference).normal_form:
            return BasisCheck(
                False, f"element {f!s} is not in the ideal the generators span"
            )

    for j in range(len(S)):
        for i in range(j):
            s = s_polynomial(S[i], S[j])
            if not s:
                continue
            h = weak_normal_form(s, S).normal_form
            if h:
                return BasisCheck(
                    False,
                    f"spoly of {S[i]!s} and {S[j]!s} has nonzero normal form {h!s}",
                )

    return BasisCheck(True)


def tail_reduce(f: Polynomial, basis: Sequence[Polynomial], *, budget: int = 1000) -> Polynomial:
    """Reduce trailing terms of f by the basis, for display purposes.

    The leading term is kept; every subtracted multiple lies in the ideal
    the basis spans, so f and the result differ by an ideal element. Under
    a local order this loop need not terminate, hence the step budget. The
    tail being reduced is a TermAccumulator; leading monomials strictly
    decrease, so the kept terms come out sorted.
    """
    if f.is_zero:
        return f
    ring = f.ring
    done = [f.leading_term]
    h = TermAccumulator(ring, f.terms[1:])
    steps = 0
    while h:
        lc, lm = h.leading_term()
        for g in basis:
            if g and monomials.divides(g.leading_monomial, lm):
                steps += 1
                if steps > budget:
                    raise ValueError(f"tail reduction exceeded {budget} steps")
                qc = lc * ring.field.inv(g.leading_coefficient) % ring.p
                h.add_multiple(-qc, monomials.quotient(lm, g.leading_monomial), g)
                break
        else:
            done.append(h.pop_leading())
    return Polynomial(ring, tuple(done))

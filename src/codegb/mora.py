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

Every reducer, h included, is a combination c_0*f - sum(c_i f_i), and its
certificate is that vector (c_0, c_1, ..., c_s): h starts as 1*f, and a
recorded intermediate carries a snapshot of h's. A step h -= q*g applies
c_j -= q*g.c_j to every position g carries, so u = c_0 and a_i = c_i stay
exact. An original divisor f_j is 0*f - (-1)*f_j, so a step by it adds the
one term q to a_j, and its word is never yet a key of a_j: the step stores
it with no lookup. Every word w in a_j came from an earlier step s, whose
h had leading monomial lm_s, with X^w*lm(f_j) >= lm_s: equality for a step
by f_j, and for a recorded g, w = q_s + w' for a word w' of g's a_j, where
by induction X^w'*lm(f_j) >= lm(g), so X^w*lm(f_j) >= X^q_s*lm(g) = lm_s.
Since lm(h) strictly falls, lm_s > lm(h) = X^q*lm(f_j), so w differs from
q. A recorded g's words can collide, so its updates go through
poly.add_product.

While the loop runs, h lives in a poly.TermAccumulator. A step costs the
work it does: a one-term g (a pure power X_j^p of a closed form, a monomial
divisor) cancels exactly h's leading term, which is dropped from h by the
word the step has already read; a longer g costs O(|g| log |h|) through
add_multiple. Either way the step makes one field inverse and the scan one
divides per candidate. Monomials are the ring's packed words (see
monomials). The ecart is this module's: a reducer's is read off its first
and last words (see ecart), h's off its smallest word, which has the largest
degree. Certificate entries are never read in leading-term order: h's are
word -> coefficient dicts, sorted into Polynomials once, at the end (the
divisors that never reduced share one zero); a recorded reducer freezes
them into tuples of (coefficient, word) pairs. The check recomputes both
sides from the returned Polynomials alone: u*f, which is f itself when
u = 1, against h merged with the sorted product a_i*f_i of every nonzero
cofactor. A product with a one-term factor, such as a one-term cofactor or
a pure power X_j^p, is one mul_term pass (see poly).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence

from . import monomials
from .buchberger import _prepare, complete, minimalize
from .poly import Polynomial, TermAccumulator, add_product, check_divisors, s_polynomial


class WeakNormalForm(namedtuple("WeakNormalForm", "normal_form unit coefficients recorded")):
    """Result of Mora reduction: u*f = sum(coefficients[i]*divisors[i]) + normal_form.

    normal_form and unit are Polynomials, coefficients a tuple of Polynomials,
    one per divisor, and recorded an int: the intermediates that the ecart
    rule added to the reducer list.
    """

    __slots__ = ()


class CertificateError(ArithmeticError):
    """A weak normal form's certificate u*f = sum(a_i f_i) + h, lt(u) = 1 does not hold."""


class BasisCheck(namedtuple("BasisCheck", "ok detail", defaults=("",))):
    """Outcome of a standard-basis verification, with the first failure named.

    ok is a bool and detail a str, empty by default. The truth value is ok's:
    as a tuple of two fields, a failed check would otherwise be true.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def ecart(f: Polynomial) -> int:
    """deg(f) - deg(lm(f)) under negdeglex, whose last term has the largest degree.

    ValueError for the zero polynomial and for a global order.
    """
    ring = f.ring
    if not ring.order.is_local:
        raise ValueError("the ecart is read under the local order only")
    if not f.terms:
        raise ValueError("the zero polynomial has no ecart")
    return ring.degree(f.terms[-1][1]) - ring.degree(f.terms[0][1])


class _Reducer:
    """A reduction candidate g = cert[0]*f - sum(cert[i]*f_i).

    position is i for the original divisor f_i, whose step adds one fresh
    term to a_i, and None for a recorded intermediate. A recorded one
    carries cert instead, a snapshot of h's own vector: it maps each nonzero
    position to a tuple of (coefficient, word) pairs, and its updates go
    through add_product. The leading term and the ecart are cached because
    every step scans every reducer. single tells whether g is one term.
    """

    __slots__ = ("poly", "lc", "lm", "ecart", "single", "position", "cert")

    def __init__(self, poly, position=None, cert=None):
        self.poly = poly
        self.lc, self.lm = poly.terms[0]
        self.ecart = ecart(poly)
        self.single = len(poly.terms) == 1
        self.position = position
        self.cert = cert


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
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    ring = f.ring
    if not ring.order.is_local:
        raise ValueError(
            "weak_normal_form requires a local order; use division.divide for global orders"
        )
    divisors = check_divisors(f, divisors)

    p, guards = ring.p, ring.guards
    divides, inv = monomials.divides, ring.field.inv
    one = monomials.ONE
    # h = cert[0]*f - sum(cert[i+1]*f_i), so cert[0] is u and cert[i+1] is a_i
    cert: list[dict] = [{one: 1}] + [{} for _ in divisors]
    h = TermAccumulator(ring, f.terms)
    reducers = [_Reducer(g, i + 1) for i, g in enumerate(divisors)]
    steps = 0

    while h:
        lc, lm = h.leading_term()
        # the earliest matching reducer of least ecart; none is below 0
        g = None
        for r in reducers:
            if (g is None or r.ecart < g.ecart) and divides(r.lm, lm, guards):
                g = r
                if not g.ecart:
                    break
        if g is None:
            break
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise ValueError(f"weak normal form exceeded {max_steps} reduction steps")
        # h's ecart is never negative, so only a reducer of positive ecart can exceed it
        if g.ecart:
            h_ecart = ring.degree(min(h.coeffs)) - ring.degree(lm)
            if g.ecart > h_ecart:
                snapshot = h.to_poly()
                # from lists, at their exact size, as in Ring._from_dict
                snapshot_cert = {j: tuple([*zip(c.values(), c)]) for j, c in enumerate(cert) if c}
                reducers.append(_Reducer(snapshot, cert=snapshot_cert))
                if trace:
                    trace(f"record intermediate {snapshot!s} (ecart {h_ecart} < {g.ecart})")
        qc = lc * inv(g.lc) % p
        qm = lm - g.lm
        if trace:
            trace(f"reduce {Polynomial(ring, ((lc, lm),))!s} by {g.poly!s}")
        # Only a recorded g carries position 0, and then q has monomial < 1
        # (lm strictly dropped since g was recorded), so lt(u) = 1 survives.
        if g.position is None:
            for j, t in g.cert.items():
                add_product(cert[j], ((-qc, qm),), t, ring)
        else:  # a fresh key of a_j, a word since g.lm passed divides
            cert[g.position][qm] = qc
        if g.single:  # q*g is exactly h's leading term
            h.drop_leading(lm)
        else:
            h.add_multiple(-qc, qm, g.poly)

    zero = ring.zero()  # shared by the divisors that never reduced, as in division.divide
    result = WeakNormalForm(
        h.to_poly(),
        ring._from_dict(cert[0]),
        tuple(ring._from_dict(a) if a else zero for a in cert[1:]),
        len(reducers) - len(divisors),
    )
    _check_certificate(f, divisors, result)
    return result


def _check_certificate(
    f: Polynomial, divisors: Sequence[Polynomial], result: WeakNormalForm
) -> None:
    """Raise CertificateError unless u*f = sum(a_i f_i) + h and lt(u) = 1 hold exactly.

    Recomputes both sides from the returned Polynomials alone, as sorted
    Polynomial products: u*f (f itself when u = 1) must equal h merged with
    every nonzero a_i*f_i, term for term.
    """
    unit = result.unit
    lhs = f if unit.terms == ((1, monomials.ONE),) else unit * f
    rhs = result.normal_form
    for a, g in zip(result.coefficients, divisors):
        if a:
            rhs = rhs._merge(a * g)
    if lhs != rhs:
        raise CertificateError("certificate identity u*f = sum(a_i f_i) + h violated")
    if not result.unit or result.unit.leading_term != (1, monomials.ONE):
        raise CertificateError("unit lost its leading term 1")


def standard_basis(
    gens: Iterable[Polynomial],
    *,
    trace: Callable[[str], None] | None = None,
) -> list[Polynomial]:
    """Complete generators to a minimal standard basis under a local order.

    Runs buchberger's completion loop (heap-ordered pair queue, normal
    selection strategy, product criterion) with weak normal forms in place
    of plain division. The result is monic, minimal (no leading monomial
    divides another's) and sorted descending by leading monomial. Tails
    are not reduced.
    """
    basis = _prepare(gens)
    if not basis:
        return []
    if not basis[0].ring.order.is_local:
        raise ValueError(
            "standard_basis requires a local order; use buchberger.groebner for global orders"
        )
    return minimalize(
        complete(basis, lambda s, b: weak_normal_form(s, b, trace=trace).normal_form, trace)
    )


def is_standard_basis(candidate: Sequence[Polynomial], gens: Sequence[Polynomial]) -> BasisCheck:
    """Check that candidate is a standard basis of the ideal gens generate.

    Two conditions: every pairwise S-polynomial of the candidate has weak
    normal form zero, and generation holds both ways (each generator
    reduces to zero against the candidate, and each candidate element
    reduces to zero against a standard basis computed from the
    generators). An empty candidate is a standard basis of the zero ideal
    only.
    """
    S = [f for f in candidate if f]
    G = [g for g in gens if g]

    # generation first: it is cheap and fails fast when an element is missing
    for g in G:
        if weak_normal_form(g, S).normal_form:
            return BasisCheck(False, f"generator {g!s} does not reduce to zero")

    reference = standard_basis(G)
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

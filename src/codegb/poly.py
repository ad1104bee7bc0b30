"""Sparse multivariate polynomials over F_p, bound to one term order.

A Polynomial is a strictly descending sequence of (coefficient, monomial)
terms under its ring's order, with no zero coefficients and no repeated
monomials; the zero polynomial is the empty sequence. Polynomials never
leave their ring implicitly: leading-term queries are only meaningful for
a fixed order, so rebinding to another order is the explicit
Ring.convert operation.

Ring.poly is the normalizing constructor for raw, unsorted terms (a dict
merge plus one sort). Sums and differences of Polynomials skip it: both
operands are already sorted, so one linear merge of the two term sequences
is enough. Reduction loops do not build a Polynomial per step at all; they
keep the polynomial being reduced in a TermAccumulator.

Elements of the localized ring attached to a local order are never
materialized as fractions here; units show up only as polynomial
certificates u with leading term 1 (see the mora module).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add
from typing import Iterable

from . import monomials
from .gfp import PrimeField
from .monomials import Monomial, Order

Term = tuple[int, Monomial]


class Ring:
    """Arithmetic context: F_p coefficients, n variables, one active order."""

    __slots__ = ("p", "n", "order", "field", "key", "heap_key")

    def __init__(self, p: int, n: int, order: Order):
        if n < 1:
            raise ValueError("variable count must be at least 1")
        self.field = PrimeField(p)
        self.p = p
        self.n = n
        self.order = order
        self.key = monomials.sort_key(order)
        self.heap_key = monomials.heap_key(order)

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return (self.p, self.n, self.order) == (other.p, other.n, other.order)

    def __hash__(self):
        return hash((self.p, self.n, self.order))

    def __repr__(self):
        return f"Ring(p={self.p}, n={self.n}, order={self.order.value})"

    def poly(self, terms: Iterable[Term]) -> Polynomial:
        """Build a polynomial from raw (coefficient, exponents) pairs.

        Duplicate monomials are merged, zero coefficients dropped, and the
        result sorted strictly descending under the active order.
        """
        acc: dict[Monomial, int] = {}
        for coeff, mono in terms:
            mono = tuple(mono)
            if len(mono) != self.n:
                raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {self.n}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            c = (acc.get(mono, 0) + coeff) % self.p
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return self._from_dict(acc)

    def _from_dict(self, acc: dict[Monomial, int]) -> Polynomial:
        ordered = sorted(acc.items(), key=lambda item: self.key(item[0]), reverse=True)
        return Polynomial(self, tuple((c, m) for m, c in ordered))

    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c: int) -> Polynomial:
        return self.poly([(c, monomials.one(self.n))])

    def variable(self, i: int) -> Polynomial:
        """The polynomial X_i, with i in [1, n]."""
        return self.poly([(1, monomials.variable(i, self.n))])

    def term(self, coeff: int, mono: Monomial) -> Polynomial:
        return self.poly([(coeff, mono)])

    def convert(self, f: Polynomial) -> Polynomial:
        """Rebind a polynomial from a sibling ring (same p and n) to this order."""
        if (f.ring.p, f.ring.n) != (self.p, self.n):
            raise ValueError(f"cannot convert between {f.ring} and {self}")
        return self.poly(f.terms)


class Polynomial:
    """Order-normalized term sequence; treat as immutable, build via Ring.poly."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: tuple[Term, ...]):
        self.ring = ring
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def leading_term(self) -> Term:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0]

    @property
    def leading_coefficient(self) -> int:
        return self.leading_term[0]

    @property
    def leading_monomial(self) -> Monomial:
        return self.leading_term[1]

    @property
    def tail(self) -> Polynomial:
        """Everything below the leading term."""
        if not self.terms:
            raise ValueError("the zero polynomial has no tail")
        return Polynomial(self.ring, self.terms[1:])

    @property
    def degree(self) -> int:
        """Max total degree over all terms; undefined for the zero polynomial."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(sum(m) for _, m in self.terms)

    def _check_ring(self, other: Polynomial) -> None:
        if self.ring != other.ring:
            raise ValueError(f"mixed polynomial contexts: {self.ring} vs {other.ring}")

    def _merge(self, other: Polynomial) -> Polynomial:
        """self + other by one linear merge of the two descending term sequences."""
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        p, key = self.ring.p, self.ring.key
        out = []
        i = j = 0
        ka, kb = key(a[0][1]), key(b[0][1])
        while True:
            if ka > kb:
                out.append(a[i])
                i += 1
                if i == len(a):
                    break
                ka = key(a[i][1])
            elif kb > ka:
                out.append(b[j])
                j += 1
                if j == len(b):
                    break
                kb = key(b[j][1])
            else:
                c = (a[i][0] + b[j][0]) % p
                if c:
                    out.append((c, a[i][1]))
                i += 1
                j += 1
                if i == len(a) or j == len(b):
                    break
                ka, kb = key(a[i][1]), key(b[j][1])
        out.extend(a[i:])
        out.extend(b[j:])
        return Polynomial(self.ring, tuple(out))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return self._merge(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        return self._merge(-other)

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, tuple((p - c, m) for c, m in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if c == 0:
                return self.ring.zero()
            p = self.ring.p
            return Polynomial(self.ring, tuple(((tc * c) % p, m) for tc, m in self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        if not self.terms or not other.terms:
            return self.ring.zero()
        p = self.ring.p
        acc: dict[Monomial, int] = {}
        for c1, m1 in self.terms:
            for c2, m2 in other.terms:
                m = monomials.mul(m1, m2)
                c = (acc.get(m, 0) + c1 * c2) % p
                if c:
                    acc[m] = c
                else:
                    acc.pop(m, None)
        return self.ring._from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial exponent must be a non-negative int")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def mul_term(self, coeff: int, mono: Monomial) -> Polynomial:
        """Multiply by a single term.

        Order compatibility with multiplication keeps the sorted layout, so
        no re-normalization is needed.
        """
        p = self.ring.p
        c = coeff % p
        if c == 0 or not self.terms:
            return self.ring.zero()
        return Polynomial(
            self.ring,
            tuple(((tc * c) % p, monomials.mul(tm, mono)) for tc, tm in self.terms),
        )

    def monic(self) -> Polynomial:
        """Scale so the leading coefficient is 1."""
        lc = self.leading_coefficient
        if lc == 1:
            return self
        return self * self.ring.field.inv(lc)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        from .parsing import print_poly

        return print_poly(self)

    def __repr__(self):
        return f"Polynomial({self!s})"


class TermAccumulator:
    """A polynomial under reduction: a monomial -> coefficient dict plus a lazy heap.

    Reduction loops read the leading term and add a term multiple c*q*g over
    and over. Here add_multiple costs O(|g| log |h|) for the current sum h,
    where building a new Polynomial would cost O(|h|) or more per step. The
    heap orders monomials by the ring's heap_key, so its minimum is the
    largest monomial; monomials whose coefficient cancelled stay in the heap
    until they surface and are dropped there. A count of terms per total
    degree makes ecart() cheap. to_poly() sorts once.
    """

    __slots__ = ("ring", "coeffs", "heap", "degree_counts")

    def __init__(self, ring: Ring, terms: Iterable[Term] = ()):
        """Start from normalized terms: nonzero coefficients, distinct monomials."""
        self.ring = ring
        self.coeffs: dict[Monomial, int] = {m: c for c, m in terms}
        self.heap = [(ring.heap_key(m), m) for m in self.coeffs]
        heapify(self.heap)
        self.degree_counts: list[int] = []
        for m in self.coeffs:
            self._count(sum(m), 1)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _count(self, degree: int, delta: int) -> None:
        counts = self.degree_counts
        if degree >= len(counts):
            counts.extend([0] * (degree + 1 - len(counts)))
        counts[degree] += delta

    def add_multiple(self, c: int, q: Monomial, g: Polynomial) -> None:
        """Add c * q * g for a coefficient c, a monomial q and a Polynomial g."""
        p = self.ring.p
        c %= p
        if not c:
            return
        coeffs, heap, heap_key = self.coeffs, self.heap, self.ring.heap_key
        for gc, gm in g.terms:
            m = tuple(map(add, gm, q))
            old = coeffs.get(m)
            if old is None:
                coeffs[m] = c * gc % p
                heappush(heap, (heap_key(m), m))
                self._count(sum(m), 1)
            else:
                new = (old + c * gc) % p
                if new:
                    coeffs[m] = new
                else:
                    del coeffs[m]
                    self.degree_counts[sum(m)] -= 1

    def leading_term(self) -> Term:
        heap, coeffs = self.heap, self.coeffs
        while heap:
            m = heap[0][1]
            c = coeffs.get(m)
            if c:
                return c, m
            heappop(heap)
        raise ValueError("the zero polynomial has no leading term")

    def pop_leading(self) -> Term:
        """Remove and return the leading term."""
        c, m = self.leading_term()
        heappop(self.heap)
        del self.coeffs[m]
        self.degree_counts[sum(m)] -= 1
        return c, m

    def ecart(self) -> int:
        """deg(h) minus deg(lt(h)) for the nonzero accumulated polynomial h."""
        lm = self.leading_term()[1]
        counts = self.degree_counts
        while not counts[-1]:
            counts.pop()
        return len(counts) - 1 - sum(lm)

    def to_poly(self) -> Polynomial:
        return self.ring._from_dict(self.coeffs)


def reduce_step(f: Polynomial, g: Polynomial) -> Polynomial:
    """One reduction of f by g: f minus the term multiple of g cancelling lt(f).

    The leading monomial of the result is strictly below lm(f); under a
    local order that means strictly *later* monomials can keep appearing,
    which is why plain reduction loops may diverge there.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("reduction needs nonzero polynomials")
    f._check_ring(g)
    if not monomials.divides(g.leading_monomial, f.leading_monomial):
        raise ValueError(f"lm of {g!s} does not divide lm of {f!s}")
    qc = f.leading_coefficient * f.ring.field.inv(g.leading_coefficient)
    qm = monomials.quotient(f.leading_monomial, g.leading_monomial)
    return f - g.mul_term(qc, qm)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Cancel the leading terms of f and g against their lcm monomial."""
    if f.is_zero or g.is_zero:
        raise ValueError("s-polynomial needs nonzero polynomials")
    f._check_ring(g)
    gamma = monomials.lcm(f.leading_monomial, g.leading_monomial)
    inv = f.ring.field.inv
    return f.mul_term(
        inv(f.leading_coefficient), monomials.quotient(gamma, f.leading_monomial)
    ) - g.mul_term(inv(g.leading_coefficient), monomials.quotient(gamma, g.leading_monomial))


def ecart(f: Polynomial) -> int:
    """deg(f) minus deg(lt(f)); the divisor-selection key under local orders."""
    return f.degree - monomials.degree(f.leading_monomial)

"""Sparse multivariate polynomials over F_p, bound to one term order.

A Polynomial is a strictly descending sequence of (coefficient, monomial)
terms under its ring's order, with no zero coefficients and no repeated
monomials; the zero polynomial is the empty sequence. Every monomial is a
word, one int in the format of its ring (a Ring is a monomials.Encoding):
Ring.poly and Ring.term take exponent tuples, Ring.exponents gives them back;
the parser builds its n*w-bit words itself (see monomials) for Ring._from_dict.
Polynomials never leave their ring implicitly: leading-term queries are
only meaningful for a fixed order, so rebinding to another order is the
explicit Ring.convert operation. There is one live Ring per (p, n, order),
so two polynomials share a ring exactly when their rings are one object.

Ring.poly is the normalizing constructor for raw, unsorted terms (a dict
merge plus one sort of the words). Sums and differences of Polynomials skip
it: both operands are already sorted, so one linear merge of the two term
sequences is enough. Reduction loops build no Polynomial per step: they
keep the polynomial being reduced in a TermAccumulator, whose docstring
states what each of its operations costs.

A product f*g takes one of three paths, each paying only for what can
happen in it:

- one-term: when the shorter operand is one term c*X^m, the product is
  mul_term(c, m) of the other, which keeps its sorted layout: one pass and
  one guard test, with no dict and no sort. An int multiple c*f (negation
  and monic too) is mul_term(c, ONE);
- disjoint: when f and g share no variable (monomials.coprime on the OR of
  each operand's words, O(|f| + |g|)), every field of a product word comes
  from one factor, so no exponent overflows and no two products share a
  word. The product is one list of |f||g| terms and one sort of its
  min(|f|, |g|) sorted runs, with no dict and no guard test;
- accumulated: every other product sums its term products into one
  word -> coefficient dict (add_product, the shorter operand in the outer
  loop), testing each for a collision and a cancellation, guard-tests the
  OR of all product words once and sorts the surviving words: |f||g| dict
  updates and one sort of the result.

Ring.one, constant and variable build their one term directly.

Elements of the localized ring attached to a local order are never
materialized as fractions here; units show up only as polynomial
certificates u with leading term 1, and the ecart that orders local
reduction is mora's (see the mora module).
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from weakref import WeakValueDictionary
from collections.abc import Iterable, Iterator, Sequence

from . import monomials
from .gfp import PrimeField
from .monomials import Order

Term = tuple[int, int]

# (p, n, order) -> the live Ring of that value; unbounded, since an evicted
# ring would let two equal rings coexist and refuse each other
_live_rings: WeakValueDictionary[tuple, Ring] = WeakValueDictionary()


class Ring(monomials.Encoding):
    """Arithmetic context: F_p coefficients, n variables, one active order.

    A Ring is the monomials.Encoding of its words: word operations take the ring itself.
    Ring(p, n, order) returns the one live Ring of that value, built on the
    first call and held by a weak registry, so equal rings are one object
    and ring agreement is an identity test.
    """

    __slots__ = ("p", "order", "field", "__weakref__")

    def __new__(cls, p: int, n: int, order: Order):
        # checked before the lookup, so a refusal never depends on which rings are live
        if not isinstance(order, Order):
            raise TypeError(f"order must be an Order, not {order!r}")
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"variable count must be an int, not {n!r}")
        if n < 1:
            raise ValueError("variable count must be at least 1")
        if n > 65536:  # printing costs memory per variable; a 20-byte file could ask for GBs
            raise ValueError(f"variable count {n} exceeds 65536")
        field = PrimeField(p)
        ring = _live_rings.get((p, n, order))
        if ring is None:
            ring = super().__new__(cls)
            ring.p, ring.order, ring.field = p, order, field
            monomials.Encoding.__init__(ring, p, n, order)
            _live_rings[p, n, order] = ring
        return ring

    def __init__(self, p: int, n: int, order: Order):
        """Nothing is left to do: __new__ builds each ring once."""

    def __repr__(self):
        return f"Ring(p={self.p}, n={self.n}, order={self.order.value})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild a ring by value, so they return the live one
        return Ring, (self.p, self.n, self.order)

    def poly(self, terms: Iterable[tuple[int, Sequence[int]]]) -> Polynomial:
        """Build a polynomial from raw (coefficient, exponent sequence) pairs.

        Duplicate monomials are merged, zero coefficients dropped, and the
        result sorted strictly descending under the active order. An
        exponent above the ring's bound raises ValueError.
        """
        acc: dict[int, int] = {}
        encode = self.encode
        for coeff, mono in terms:
            m = encode(mono)
            c = (acc.get(m, 0) + coeff) % self.p
            if c:
                acc[m] = c
            else:
                acc.pop(m, None)
        return self._from_dict(acc)

    def _from_dict(self, acc: dict[int, int]) -> Polynomial:
        """The polynomial of a word -> nonzero coefficient dict."""
        ordered = sorted(acc, reverse=self.descending)
        # exact-size tuple from a list; a tuple of a zip is resized as it grows, off the free lists
        return Polynomial(self, tuple([*zip(map(acc.__getitem__, ordered), ordered)]))

    def _from_terms(self, terms: list[Term]) -> Polynomial:
        """The polynomial of a list of nonzero terms with distinct words, sorted in place."""
        terms.sort(key=itemgetter(1), reverse=self.descending)
        return Polynomial(self, tuple(terms))

    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c: int) -> Polynomial:
        c %= self.p
        return Polynomial(self, ((c, monomials.ONE),) if c else ())

    def variable(self, i: int) -> Polynomial:
        """The polynomial X_i, with i in [1, n]."""
        return Polynomial(self, ((1, self.variable_word(i)),))

    def term(self, coeff: int, mono: Sequence[int]) -> Polynomial:
        return self.poly([(coeff, mono)])

    def convert(self, f: Polynomial) -> Polynomial:
        """Rebind a polynomial from a sibling ring (same p and n) to this order."""
        if (f.ring.p, f.ring.n) != (self.p, self.n):
            raise ValueError(f"cannot convert between {f.ring} and {self}")
        return self.poly((c, f.ring.exponents(m)) for c, m in f.terms)


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
    def leading_monomial(self) -> int:
        return self.leading_term[1]

    def _check_ring(self, other: Polynomial) -> None:
        if self.ring is not other.ring:
            _refuse_mixed(self.ring, other.ring)

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
        if not isinstance(other, (int, Polynomial)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return -self + other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, int):
            return self.mul_term(other, monomials.ONE)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return ring.zero()
        if len(a) > len(b):
            a, b, other = b, a, self
        if len(a) == 1:  # other holds b
            return other.mul_term(*a[0])
        if monomials.coprime(support(a), support(b), ring):
            # each field of a product word comes from one factor, so no word
            # overflows and no two coincide; one sorted run per term of a
            p = ring.p
            return ring._from_terms([(c1 * c2 % p, m1 + m2) for c1, m1 in a for c2, m2 in b])
        acc: dict[int, int] = {}
        add_product(acc, a, b, ring)
        return ring._from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial exponent must be a non-negative int")
        ring = self.ring
        p = ring.p
        if k >= p:
            # f^(pq + r) = F(f^q) * f^r for the Frobenius map F(g) = g^p, which
            # sends c*X^e to c*X^(pe) since c^p = c in F_p; encode checks each p*e
            root = self ** (k // p)
            frobenius = ring.poly((c, [p * e for e in ring.exponents(m)]) for c, m in root.terms)
            return frobenius * self ** (k % p)
        result = ring.one()
        base = self
        while True:
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def mul_term(self, coeff: int, mono: int) -> Polynomial:
        """Multiply by a single term, given by its coefficient and word.

        Order compatibility with multiplication keeps the sorted layout, so
        no re-normalization is needed. Each product word is a sum, and one
        guard test of the OR of all of them raises on any overflow.
        """
        ring = self.ring
        p = ring.p
        c = coeff % p
        if c == 0 or not self.terms:
            return ring.zero()
        out = []
        seen = 0
        for tc, tm in self.terms:
            m = tm + mono
            seen |= m
            out.append((tc * c % p, m))
        monomials.check(seen, ring.guards)
        return Polynomial(ring, tuple(out))

    def monic(self) -> Polynomial:
        """Scale so the leading coefficient is 1."""
        lc = self.leading_coefficient
        if lc == 1:
            return self
        return self * self.ring.field.inv(lc)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        from .parsing import print_poly

        return print_poly(self)

    def __repr__(self):
        return f"Polynomial({self!s})"


def support(terms: Iterable[Term]) -> int:
    """The OR of the words: a field is nonzero iff its variable occurs in a term."""
    support = 0
    for _, m in terms:
        support |= m
    return support


def add_product(acc: dict[int, int], a: Sequence[Term], b: Sequence[Term], ring: Ring) -> None:
    """Add a*b into a word -> coefficient dict, mod p; cancelled terms leave it.

    a and b are sequences of (coefficient, word) pairs, each with distinct
    words: a Polynomial's terms, a single term ((c, q),), a Mora cofactor.
    a runs in the outer loop; callers pass the shorter first, as __mul__ and Mora's quotient do.
    """
    p = ring.p
    seen = 0  # the OR of all products, for one guard test
    for c1, m1 in a:
        for c2, m2 in b:
            m = m1 + m2
            seen |= m
            v = (acc.get(m, 0) + c1 * c2) % p
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
    monomials.check(seen, ring.guards)


class TermAccumulator:
    """A polynomial under reduction: a word -> coefficient dict, its input's run and a lazy heap.

    Reduction loops read the leading term and add a term multiple c*q*g over
    and over; division.divide and mora.weak_normal_form keep the dividend h
    here (divide's quotients come out sorted and Mora's unit and cofactors
    are never read in order, so those are plain lists and dicts). The words
    h starts with stay in their descending run, a list that leading_terms()
    walks by an index; the heap holds the heap keys of only the words that
    add_multiple creates, a word that cancelled and comes back included, so
    its minimum is the largest created monomial. The leading term is the
    larger of the two heads. A word whose coefficient cancelled or was
    dropped stays where it is until it surfaces at a head, and is skipped
    there. So a drop is one dict delete, and passing to the next term of the
    run costs O(1); add_multiple costs O(|g| log |h|) for the current sum h,
    where building a new Polynomial would cost O(|h|) or more per step.
    to_poly() sorts once. It keeps no ecart; mora reads h's.
    """

    __slots__ = ("ring", "coeffs", "run", "heap")

    def __init__(self, ring: Ring, terms: Iterable[Term]):
        """Start from a Polynomial's descending terms, which form the run."""
        self.ring = ring
        self.coeffs: dict[int, int] = {m: c for c, m in terms}
        self.run = list(self.coeffs)
        self.heap: list[int] = []

    def add_multiple(self, c: int, q: int, g: Polynomial) -> None:
        """Add c * q * g for a coefficient c, a word q and a Polynomial g."""
        ring = self.ring
        p = ring.p
        c %= p
        if not c:
            return
        coeffs, heap, heap_key = self.coeffs, self.heap, ring.heap_key
        seen = 0
        for gc, gm in g.terms:
            m = gm + q
            seen |= m
            old = coeffs.get(m)
            if old is None:
                coeffs[m] = c * gc % p
                heappush(heap, heap_key(m))
            else:
                new = (old + c * gc) % p
                if new:
                    coeffs[m] = new
                else:
                    del coeffs[m]
        monomials.check(seen, ring.guards)

    def leading_terms(self) -> Iterator[Term]:
        """Yield the leading term (coefficient, word) until h is zero.

        Each resume finds the leading term of h as it is then, so the caller
        removes the yielded term before resuming, by drop_leading or by an
        add_multiple that cancels it, as a reduction step does; a term left
        in place is yielded again. The walk's run index lives in the
        generator, so a second walk starts again at the run's top.
        """
        coeffs, run, heap, heap_key = self.coeffs, self.run, self.heap, self.ring.heap_key
        i, end = 0, len(run)
        while coeffs:
            while i < end and run[i] not in coeffs:
                i += 1
            while heap and heap_key(heap[0]) not in coeffs:
                heappop(heap)
            # every word of coeffs is in run[i:] or in the heap; a tie is one word
            if not heap or i < end and heap_key(run[i]) <= heap[0]:
                m = run[i]
            else:
                m = heap_key(heap[0])
            yield coeffs[m], m

    def drop_leading(self, m: int) -> None:
        """Remove the leading term, whose word m the walk has just yielded."""
        del self.coeffs[m]

    def to_poly(self) -> Polynomial:
        return self.ring._from_dict(self.coeffs)


def _refuse_mixed(ring: Ring, other: Ring) -> None:
    """Raise the ValueError of two polynomials or divisors whose rings differ."""
    raise ValueError(f"mixed polynomial contexts: {ring} vs {other}")


class DivisorBasis(list):
    """Nonzero divisors of one ring, each checked and read once, as it joins.

    Divisors join only by extend or append, which refuse one of another ring
    (an identity test, see Ring) and the zero polynomial, and read each
    leading word into leading. A refused sequence adds nothing.
    division.divide takes a DivisorBasis as it is (see of), so a loop that
    divides many polynomials by one basis pays that set-up once per divisor,
    not once per call: Buchberger's completion keeps one, which grows with
    its basis, and reduce_basis one for its minimal basis.
    mora._ReducerBasis extends it with each divisor's reducer.
    """

    __slots__ = ("ring", "leading")

    def __init__(self, divisors: Iterable[Polynomial] = (), ring: Ring | None = None):
        """The divisors in order, of ring, which defaults to the first divisor's."""
        self.ring = ring
        self.leading: list[int] = []
        self.extend(divisors)

    @classmethod
    def of(cls, f: Polynomial, divisors: Sequence[Polynomial]) -> DivisorBasis:
        """The divisors prepared to reduce f.

        A basis of exactly this class is taken as it is, once f's ring is
        checked against it; any other sequence is checked and prepared anew.
        """
        if type(divisors) is cls:
            if divisors:
                f._check_ring(divisors[0])
            return divisors
        return cls(divisors, f.ring)

    def extend(self, divisors: Iterable[Polynomial]) -> None:
        # one loop for a whole sequence, not a method call per divisor:
        # divide prepares every plain sequence it is handed, once per call
        divisors = list(divisors)
        ring = self.ring
        for g in divisors:
            if g.ring is not ring:
                if ring is not None:
                    _refuse_mixed(ring, g.ring)
                ring = g.ring
            if not g.terms:
                raise ValueError("divisors must be nonzero")
        self.ring = ring
        list.extend(self, divisors)
        self.leading += [g.terms[0][1] for g in divisors]

    def append(self, g: Polynomial) -> None:
        self.extend((g,))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Cancel the leading terms of f and g against their lcm monomial.

    The two scaled multiples are merged directly, with the minus sign folded
    into the scalar of g's multiple.
    """
    if not f.terms or not g.terms:
        raise ValueError("s-polynomial needs nonzero polynomials")
    f._check_ring(g)
    if len(f.terms) == 1 and len(g.terms) == 1:  # both multiples are the monic lcm
        return f.ring.zero()
    return _s_polynomial(f, g, monomials.lcm(f.terms[0][1], g.terms[0][1], f.ring))


def _s_polynomial(f: Polynomial, g: Polynomial, gamma: int) -> Polynomial:
    """The S-polynomial of two nonzero polynomials of one ring, whose leading words have lcm gamma.

    s_polynomial ends here; Buchberger's completion calls it directly with
    the lcm its pair's heap entry holds.
    """
    (fc, fm), (gc, gm) = f.terms[0], g.terms[0]
    inv = f.ring.field.inv
    # every field of the lcm is at least fm's and gm's, so both differences are words
    return f.mul_term(inv(fc), gamma - fm)._merge(g.mul_term(-inv(gc), gamma - gm))

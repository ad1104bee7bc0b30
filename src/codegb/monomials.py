"""Packed monomials (words) and the four term orders.

A monomial in n variables is one Python int, a *word*, in the format of
its ring's Encoding. The word holds n exponent fields of w bits each; the
top bit of every field is a guard bit that stays clear, so an exponent is
at most 2^(w-1) - 1. Above the fields sits the total degree D, added as
+D (deglex), subtracted as -D (negdeglex, degrevlex) or left out (lex).
The variables fill the fields from the top, X_1 first, except under
degrevlex, where X_n takes the top field. With this layout the sort key of
every order is the word itself, or minus the word for degrevlex, and the
heap key is minus the sort key:

- lex compares the fields from X_1 down;
- deglex compares D, then the fields from X_1 down;
- negdeglex compares -D, then the fields from X_1 down;
- degrevlex compares D, then the fields from X_n down, smaller first.

All the monomial arithmetic is integer arithmetic on words. The product of
two monomials is the sum of their words; a field that overflows sets its
guard bit, and check then raises ValueError instead of wrapping. a divides b
exactly when (b - a) & guards is 0: a field of b - a that would be
negative borrows from above and so sets its own guard bit. The quotient is
b - a, and the monomial 1 is the word 0 in every ring. The lcm takes the
larger exponent of every field with one more guard-bit subtraction and
unpacks only its result, for the degree. Exponent tuples appear otherwise
only at the edges, through Encoding.encode and Encoding.exponents, which
(un)pack the fields with struct in one C call; the parser sums multiples of
variable_word instead. A word holds n*w bits (128 KiB at n = 65 536 with
16-bit fields), and a polynomial keeps one per term.

The field width w is the smallest of 16, 32 and 64 bits whose exponent
range exceeds 2p: the closed forms and translated generators of codes over
F_p need exponents up to p and S-polynomials up to 2p. Larger moduli use 64
bits.
"""

from __future__ import annotations

import struct
from enum import Enum
from operator import neg, pos

ONE = 0  # the word of the monomial 1 in every encoding


class Order(Enum):
    LEX = "lex"
    DEGLEX = "deglex"
    DEGREVLEX = "degrevlex"
    NEGDEGLEX = "negdeglex"

    @property
    def is_local(self) -> bool:
        """True for orders with 1 > X_i; these need Mora-style reduction."""
        return self is Order.NEGDEGLEX


class Encoding:
    """The word format of one ring: field width, guard bits, field order, degree.

    key(word) > key(other) iff word is the larger monomial under the order,
    and heap_key = -key, so heapq's minimum is the order's maximum. Both
    are their own inverses. descending tells whether the order's descending
    sequence of monomials is descending as ints (False only for degrevlex).
    """

    __slots__ = (
        "n", "width", "bound", "guards", "fields", "shift", "degree_unit", "key", "heap_key",
        "descending", "degree", "_struct", "_byteorder",
    )

    def __init__(self, p: int, n: int, order: Order):
        # the smallest width w with 2^(w-1) > 2p, that is p < 2^(w-2)
        width = self.width = 16 if p < 1 << 14 else 32 if p < 1 << 30 else 64
        shift = self.shift = n * width
        self.n = n
        self.bound = (1 << (width - 1)) - 1
        self.fields = (1 << shift) - 1  # the mask of the exponent fields, below the degree
        ones = self.fields // ((1 << width) - 1)  # a 1 at the bottom of every field
        self.guards = ones << (width - 1)
        # degrevlex packs X_1 into the lowest field; the others pack X_1 into the top one
        self.descending = order is not Order.DEGREVLEX
        self.key, self.heap_key = (pos, neg) if self.descending else (neg, pos)
        self._byteorder = "big" if self.descending else "little"
        code = {16: "H", 32: "I", 64: "Q"}[width]
        self._struct = struct.Struct(f"{'>' if self.descending else '<'}{n}{code}")
        if order is Order.LEX:
            self.degree_unit = 0
            self.degree = lambda word: sum(self.exponents(word))
        elif order is Order.DEGLEX:
            self.degree_unit = 1 << shift
            self.degree = lambda word: word >> shift
        else:
            self.degree_unit = -(1 << shift)
            self.degree = lambda word: -(word >> shift)

    def encode(self, exponents) -> int:
        """The word of a sequence of n non-negative exponents; ValueError otherwise."""
        try:
            fields = int.from_bytes(self._struct.pack(*exponents), self._byteorder)
        except struct.error:
            fields = self.guards
        if fields & self.guards:
            self._refuse(tuple(exponents))
        return fields + self.degree_unit * sum(exponents)

    def _refuse(self, mono: tuple) -> None:
        if len(mono) != self.n:
            raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {self.n}")
        if any(e < 0 for e in mono):
            raise ValueError(f"negative exponent in monomial {mono}")
        raise ValueError(
            f"exponent {max(mono)} in monomial {mono} exceeds {self.bound}, "
            "the largest exponent of this ring"
        )

    def exponents(self, word: int) -> tuple[int, ...]:
        """The exponent tuple of a word."""
        return self._struct.unpack((word & self.fields).to_bytes(self.shift // 8, self._byteorder))

    def field_mask(self, lo: int, hi: int) -> int:
        """The mask of the fields of X_(lo+1) .. X_hi, for 0 <= lo <= hi <= n."""
        bottom = self.n - hi if self.descending else lo  # counted in fields from the bottom
        return ((1 << (hi - lo) * self.width) - 1) << bottom * self.width

    def variable_word(self, i: int) -> int:
        """The word of X_i, with i in [1, n]: a 1 in X_i's field, plus the degree 1."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range [1, {self.n}]")
        mask = self.field_mask(i - 1, i)
        return (mask & -mask) + self.degree_unit


def check(product: int, guards: int) -> None:
    """Raise ValueError if an exponent of a product overflowed into its guard bit.

    The OR of many products has a guard bit set iff one of them has, so a
    loop may test the OR of all its products once.
    """
    if product & guards:
        bound = (guards & -guards) - 1
        raise ValueError(f"exponent overflow: a product has an exponent above {bound}")


def divides(a: int, b: int, guards: int) -> bool:
    """Componentwise a <= b."""
    return not (b - a) & guards


def lcm(a: int, b: int, encoding: Encoding) -> int:
    """The least common multiple of two monomials: the larger exponent of every field.

    With fa and fb the exponent fields of a and b, ((fa | guards) - fb) &
    guards keeps the guard bit of exactly the fields where a's exponent is
    at least b's (no field borrows from the next). Spreading each kept guard
    bit over the bits below it selects those fields of a; the other fields
    come from b. The degree is added from the exponents of the result.
    """
    mask, guards = encoding.fields, encoding.guards
    fa, fb = a & mask, b & mask
    ge = ((fa | guards) - fb) & guards
    ge -= ge >> (encoding.width - 1)
    fields = (fa & ge) | (fb & ~ge)
    return fields + encoding.degree_unit * sum(encoding.exponents(fields))


def coprime(a: int, b: int, encoding: Encoding) -> bool:
    """True when no variable occurs in both a and b."""
    # adding 2^(w-1) - 1 to a field sets its guard bit iff the field is nonzero
    guards = encoding.guards
    low = guards - (guards >> (encoding.width - 1))
    return not (a + low) & (b + low) & guards

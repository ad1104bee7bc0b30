"""Exponent vectors and the four term orders.

A monomial in n variables is a plain tuple of n non-negative ints. Orders
compare monomials through sort keys, so bigger key means bigger monomial;
all four are total orders compatible with monomial multiplication. The
three global orders satisfy 1 < X_i for every variable, the negative
degree lexicographic order satisfies 1 > X_i and is the local order every
standard-basis routine runs under.
"""

from __future__ import annotations

from enum import Enum
from operator import neg
from typing import Callable

Monomial = tuple[int, ...]


class Order(Enum):
    LEX = "lex"
    DEGLEX = "deglex"
    DEGREVLEX = "degrevlex"
    NEGDEGLEX = "negdeglex"

    @property
    def is_local(self) -> bool:
        """True for orders with 1 > X_i; these need Mora-style reduction."""
        return self is Order.NEGDEGLEX


def sort_key(order: Order) -> Callable[[Monomial], tuple]:
    """Key function realizing the order: key(a) > key(b) iff a > b."""
    if order is Order.LEX:
        return lambda m: m
    if order is Order.DEGLEX:
        return lambda m: (sum(m), m)
    if order is Order.DEGREVLEX:
        return lambda m: (sum(m), tuple(-e for e in reversed(m)))
    if order is Order.NEGDEGLEX:
        return lambda m: (-sum(m), m)
    raise ValueError(f"unknown order {order}")


def heap_key(order: Order) -> Callable[[Monomial], tuple]:
    """Key function with key(a) < key(b) iff a > b: heapq's minimum is the order's maximum."""
    if order is Order.LEX:
        return lambda m: tuple(map(neg, m))
    if order is Order.DEGLEX:
        return lambda m: (-sum(m), tuple(map(neg, m)))
    if order is Order.DEGREVLEX:
        return lambda m: (-sum(m), m[::-1])
    if order is Order.NEGDEGLEX:
        return lambda m: (sum(m), tuple(map(neg, m)))
    raise ValueError(f"unknown order {order}")


def compare(order: Order, a: Monomial, b: Monomial) -> int:
    """Total-order comparison: -1, 0 or 1. Zero only for identical vectors."""
    if len(a) != len(b):
        raise ValueError(f"monomial lengths differ: {len(a)} vs {len(b)}")
    key = sort_key(order)
    ka, kb = key(a), key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def degree(a: Monomial) -> int:
    return sum(a)


def mul(a: Monomial, b: Monomial) -> Monomial:
    if len(a) != len(b):
        raise ValueError(f"monomial lengths differ: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def divides(a: Monomial, b: Monomial) -> bool:
    """Componentwise a <= b."""
    if len(a) != len(b):
        raise ValueError(f"monomial lengths differ: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def quotient(b: Monomial, a: Monomial) -> Monomial:
    """b / a for a divisor a of b."""
    if not divides(a, b):
        raise ValueError(f"{a} does not divide {b}")
    return tuple(y - x for x, y in zip(a, b))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    if len(a) != len(b):
        raise ValueError(f"monomial lengths differ: {len(a)} vs {len(b)}")
    return tuple(max(x, y) for x, y in zip(a, b))


def one(n: int) -> Monomial:
    """The constant monomial in n variables."""
    return (0,) * n


def variable(i: int, n: int) -> Monomial:
    """The monomial X_i, with i in [1, n]."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range [1, {n}]")
    return tuple(1 if j == i - 1 else 0 for j in range(n))

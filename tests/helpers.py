"""Golden data, seeded random-instance generators and the tuple reference
for the packed monomials, shared across the tests."""

from __future__ import annotations

import sys
from operator import add, le, sub

from codegb import ecart, monomials
from codegb.codes import random_matrix
from codegb.monomials import Order
from codegb.poly import Polynomial, Ring

EXAMPLE_MATRIX = """\
p=3
k=3 n=6
1 0 0 1 0 1
0 1 0 2 1 0
0 0 1 2 2 1
"""

# Canonical prints of the closed-form standard basis for EXAMPLE_MATRIX.
G1 = "X1+X4+X6+2X4^2+2X4X6+2X6^2+X4^2X6+X4X6^2+2X4^2X6^2"
G2 = "X2+2X4+X5+X4X5+2X5^2+2X4X5^2"
G3 = "X3+2X4+2X5+X6+2X4X5+X4X6+X5X6+2X6^2+X4X5X6+2X4X6^2+2X5X6^2+2X4X5X6^2"
CLOSED_FORM_LINES = [G1, G2, G3, "X4^3", "X5^3", "X6^3"]

LEX_BASIS_LINES = [
    "X1+2X4^2X6^2",
    "X2+2X4X5^2",
    "X3+2X4X5X6^2",
    "X4^3+2",
    "X5^3+2",
    "X6^3+2",
]


def random_monomial(rng, n, max_deg, min_deg=0):
    total = rng.randint(min_deg, max_deg)
    mono = [0] * n
    for _ in range(total):
        mono[rng.randrange(n)] += 1
    return tuple(mono)


def random_poly(ring: Ring, rng, max_terms=5, max_deg=5) -> Polynomial:
    raw = [
        (rng.randrange(1, ring.p), random_monomial(rng, ring.n, max_deg))
        for _ in range(rng.randint(0, max_terms))
    ]
    return ring.poly(raw)


def random_nonzero_poly(ring: Ring, rng, max_terms=5, max_deg=5) -> Polynomial:
    while True:
        f = random_poly(ring, rng, max_terms, max_deg)
        if f:
            return f


def random_local_divisor(ring: Ring, rng, max_terms=4, max_deg=5) -> Polynomial:
    """Nonzero polynomial vanishing at the origin.

    A nonzero constant term would make the divisor a unit of the localized
    ring (the ideal degenerates to the whole ring), so random reduction
    instances stick to the ideal-of-the-origin setting the local order is
    for.
    """
    while True:
        raw = [
            (rng.randrange(1, ring.p), random_monomial(rng, ring.n, max_deg, min_deg=1))
            for _ in range(rng.randint(1, max_terms))
        ]
        f = ring.poly(raw)
        if f:
            return f


def random_code(rng, ps=(2, 3, 5), max_k=3, max_n=6):
    p = rng.choice(ps)
    k = rng.randint(1, max_k)
    n = rng.randint(k, max_n)
    return random_matrix(rng, p, k, n)


def random_codeword(rng, G):
    """Encode a random message: x * G over F_p, as an exponent vector."""
    message = [rng.randrange(G.p) for _ in range(G.k)]
    return tuple(
        sum(message[r] * G.rows[r][c] for r in range(G.k)) % G.p for c in range(G.n)
    )


def naive_reduction(f, divisors, budget):
    """Plain reduction loop without Mora's recording rule.

    Uses the same minimal-ecart, earliest-first selection but never adds
    intermediates, so it diverges on the inputs the recording rule exists
    for. Returns (h, steps, exceeded_budget).
    """
    h = f
    steps = 0
    while h:
        guards = h.ring.guards
        matching = [
            g for g in divisors if monomials.divides(g.leading_monomial, h.leading_monomial, guards)
        ]
        if not matching:
            break
        g = min(matching, key=ecart)
        h = reduce_step(h, g)
        steps += 1
        if steps > budget:
            return h, steps, True
    return h, steps, False


# -- tuple reference ----------------------------------------------------------
# The textbook definitions on exponent tuples. The library packs monomials
# into words (see codegb.monomials); the properties check it against these.


def _same_length(a, b):
    if len(a) != len(b):
        raise ValueError(f"monomial lengths differ: {len(a)} vs {len(b)}")


def ref_mul(a, b):
    _same_length(a, b)
    return tuple(map(add, a, b))


def ref_divides(a, b):
    _same_length(a, b)
    return all(map(le, a, b))


def ref_quotient(b, a):
    _same_length(a, b)
    q = tuple(map(sub, b, a))
    if min(q, default=0) < 0:
        raise ValueError(f"{a} does not divide {b}")
    return q


def ref_lcm(a, b):
    _same_length(a, b)
    return tuple(map(max, a, b))


def ref_degree(a):
    return sum(a)


def ref_key(order):
    """Key function realizing the order on tuples: key(a) > key(b) iff a > b."""
    if order is Order.LEX:
        return lambda m: m
    if order is Order.DEGLEX:
        return lambda m: (sum(m), m)
    if order is Order.DEGREVLEX:
        return lambda m: (sum(m), tuple(-e for e in reversed(m)))
    if order is Order.NEGDEGLEX:
        return lambda m: (-sum(m), m)
    raise ValueError(f"unknown order {order}")


def compare(order, a, b):
    """Total-order comparison of exponent tuples: -1, 0 or 1. Zero only for identical vectors."""
    _same_length(a, b)
    key = ref_key(order)
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


def reduce_step(f: Polynomial, g: Polynomial) -> Polynomial:
    """One reduction of f by g: f minus the term multiple of g cancelling lt(f).

    The leading monomial of the result is strictly below lm(f); under a
    local order that means strictly *later* monomials can keep appearing,
    which is why plain reduction loops may diverge there.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("reduction needs nonzero polynomials")
    f._check_ring(g)
    guards = f.ring.guards
    if not monomials.divides(g.leading_monomial, f.leading_monomial, guards):
        raise ValueError(f"lm of {g!s} does not divide lm of {f!s}")
    qc = f.leading_coefficient * f.ring.field.inv(g.leading_coefficient)
    qm = monomials.quotient(f.leading_monomial, g.leading_monomial, guards)
    return f - g.mul_term(qc, qm)


def ref_print_poly(f: Polynomial) -> str:
    """The canonical text of f, written term by term from each word's exponent tuple."""
    if f.is_zero:
        return "0"
    parts = []
    for coeff, word in f.terms:
        exponents = enumerate(f.ring.exponents(word), start=1)
        vars_part = "".join(f"X{i}" if e == 1 else f"X{i}^{e}" for i, e in exponents if e)
        if not vars_part:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(vars_part)
        else:
            parts.append(f"{coeff}{vars_part}")
    return "+".join(parts)


def exponent_terms(f: Polynomial):
    """f's terms with each word decoded: (coefficient, exponent tuple) pairs."""
    return tuple((c, f.ring.exponents(m)) for c, m in f.terms)


def wrap_everywhere(monkeypatch, module, attr: str, make_wrapper) -> None:
    """Replace module.attr by make_wrapper(original) at every codegb binding of it.

    A name imported with ``from .division import divide`` is a binding of
    its own, so the function is replaced wherever the package refers to it,
    as the benchmark's tracer (perfbench/tracer.py) does.
    """
    original = getattr(module, attr)
    wrapped = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "codegb" and mod.__dict__.get(attr) is original:
            monkeypatch.setattr(mod, attr, wrapped)


def count_calls(monkeypatch, *targets) -> dict[str, int]:
    """Count the calls of each (module, attr) target, wrapped at every binding.

    The counts are keyed by attr.
    """
    counts = {attr: 0 for _, attr in targets}
    for module, attr in targets:

        def make_wrapper(original, attr=attr):
            def counted(*args, **kwargs):
                counts[attr] += 1
                return original(*args, **kwargs)

            return counted

        wrap_everywhere(monkeypatch, module, attr, make_wrapper)
    return counts

"""Outside oracles: sympy's Groebner bases and the colength p^(n-k) of a code.

The other tests mostly compare the kernel with itself. Here a reduced
Groebner basis is checked against sympy's, computed by separate code over
the same prime field, and the standard bases of a code ideal are checked
against the size of its quotient, which the code fixes in advance: the
ideal of an [n, k] code over F_p has p^(n-k) standard monomials, under the
local order at the translated origin as under a global order.
"""

import random
from itertools import product

import pytest
import sympy

from codegb.buchberger import groebner, reduce_basis
from codegb.codes import lex_code_basis, random_matrix, translated_generators
from codegb.monomials import Order
from codegb.mora import standard_basis
from codegb.poly import Ring

from helpers import exponent_terms, random_nonzero_poly, ref_divides

SYMPY_ORDER = {Order.LEX: "lex", Order.DEGLEX: "grlex", Order.DEGREVLEX: "grevlex"}


def sympy_reduced_basis(gens, ring):
    """sympy's reduced Groebner basis of gens, monic, as sorted term lists."""
    xs = sympy.symbols(f"X1:{ring.n + 1}")
    exprs = [
        sum(c * sympy.prod(x**e for x, e in zip(xs, m)) for c, m in exponent_terms(f))
        for f in gens
    ]
    basis = sympy.groebner(exprs, *xs, modulus=ring.p, order=SYMPY_ORDER[ring.order])
    out = []
    for g in basis.polys:
        # sympy prints residues in (-p/2, p/2); map them to [0, p), then make monic
        f = ring.poly([(int(c) % ring.p, m) for m, c in g.terms()])
        out.append(f * ring.field.inv(f.leading_coefficient))
    return sorted(map(str, out))


@pytest.mark.parametrize("order", list(SYMPY_ORDER))
def test_reduced_basis_matches_sympy(order):
    rng = random.Random(f"sympy-{order.value}")
    proper = 0
    for _ in range(20):
        ring = Ring(rng.choice((2, 3, 5, 7)), rng.randint(2, 3), order)
        gens = [random_nonzero_poly(ring, rng, max_terms=4, max_deg=3) for _ in range(2)]
        ours = sorted(map(str, reduce_basis(groebner(gens))))
        assert ours == sympy_reduced_basis(gens, ring), [str(g) for g in gens]
        proper += ours != ["1"]
    assert proper >= 10  # most instances are not the whole ring


def count_standard_monomials(basis, p, n):
    """Monomials with every exponent at most p divisible by no leading monomial.

    X_i^p lies in the leading ideal of both bases tested here (X_i^p - 1 is
    in the code ideal, and X_i^p is in its translate), so a right basis has
    no standard monomial outside the box, and a basis that misses X_i^p
    counts X_i^p as standard.
    """
    leads = [f.ring.exponents(f.leading_monomial) for f in basis]
    return sum(
        not any(ref_divides(lm, m) for lm in leads)
        for m in product(range(p + 1), repeat=n)
    )


def test_mora_and_degrevlex_bases_have_colength_p_to_the_n_minus_k():
    rng = random.Random(47)
    for _ in range(12):
        p = rng.choice((2, 3, 5))
        k = rng.randint(1, 2)
        n = rng.randint(k + 1, 4 if p == 5 else 5)
        G = random_matrix(rng, p, k, n)
        ring = Ring(p, n, Order.DEGREVLEX)
        global_basis = reduce_basis(groebner([ring.convert(f) for f in lex_code_basis(G)]))
        local_basis = standard_basis(translated_generators(G))
        expected = p ** (n - k)
        assert count_standard_monomials(global_basis, p, n) == expected, G
        assert count_standard_monomials(local_basis, p, n) == expected, G

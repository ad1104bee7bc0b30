"""Linear codes over F_p and their binomial ideals.

A [n, k] code is given by a generator matrix in standard form (I_k | M).
Each row i yields the vector m_i, a tuple of n ints: (p - g_ij) mod p on
the right block, else 0. Those vectors shape both the lexicographic
Groebner basis of the code ideal and, after translating the common zero
(1, ..., 1) to the origin, the closed-form standard basis of the translated
ideal under the negative degree lexicographic order. A closed form of more
than MAX_CLOSED_FORM_TERMS terms is refused with ValueError, unbuilt.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

from . import monomials
from .gfp import is_prime
from .monomials import Order, variable
from .mora import BasisCheck, is_standard_basis
from .parsing import content_lines, too_many_digits
from .poly import Polynomial, Ring


# A matrix entry: ASCII decimal digits, as in polynomial text. A '-' sign is
# read, so that a negative entry is reported as outside [0, p).
_ENTRY = re.compile(r"-?[0-9]+")

# The most terms, summed over rows, that closed_form_basis and translated_generators build:
# at their peak of 125-223 bytes per term, about 0.2 GiB. p=3, n=12 all ones has 177 147.
MAX_CLOSED_FORM_TERMS = 2**20


class MatrixFormatError(ValueError):
    """Malformed matrix text or a matrix that is not in standard form."""


@dataclass(frozen=True)
class GeneratorMatrix:
    """k x n generator matrix over F_p in standard form (I_k | M)."""

    p: int
    k: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise MatrixFormatError(f"p={self.p} is not prime")
        if not 1 <= self.k <= self.n:
            raise MatrixFormatError(f"need 1 <= k <= n, got k={self.k} n={self.n}")
        if len(self.rows) != self.k:
            raise MatrixFormatError(f"expected {self.k} rows, got {len(self.rows)}")
        for r, row in enumerate(self.rows, start=1):
            if len(row) != self.n:
                raise MatrixFormatError(f"row {r} has {len(row)} entries, expected {self.n}")
            for c, entry in enumerate(row, start=1):
                if not 0 <= entry < self.p:
                    raise MatrixFormatError(
                        f"entry {entry} at row {r} col {c} is outside [0, {self.p})"
                    )
        for r in range(self.k):
            for c in range(self.k):
                expected = 1 if r == c else 0
                if self.rows[r][c] != expected:
                    raise MatrixFormatError(
                        f"not in standard form: row {r + 1} col {c + 1} is "
                        f"{self.rows[r][c]}, expected {expected}"
                    )


def parse_matrix(text: str) -> GeneratorMatrix:
    """Parse the matrix wire format.

    Line 1 is ``p=<prime>``, line 2 is ``k=<int> n=<int>``, then k lines
    of n integers in [0, p), separated by spaces or tabs. ``#`` starts a comment.
    """
    lines = content_lines(text)
    if len(lines) < 2:
        raise MatrixFormatError("expected a p= line and a k=/n= line")
    (p_line, _, p_text), (kn_line, _, kn_text), *body = lines
    m = re.fullmatch(r"p=([0-9]+)", p_text)
    if not m:
        raise MatrixFormatError(f"expected 'p=<prime>' on line {p_line}, got {p_text!r}")
    p = _header_int(m.group(1), p_line)
    m = re.fullmatch(r"k=([0-9]+)[ \t]+n=([0-9]+)", kn_text)
    if not m:
        raise MatrixFormatError(f"expected 'k=<int> n=<int>' on line {kn_line}, got {kn_text!r}")
    k, n = (_header_int(digits, kn_line) for digits in m.groups())
    rows = []
    for r, (_, _, line) in enumerate(body, start=1):
        entries = re.split(r"[ \t]+", line)
        try:
            if not all(map(_ENTRY.fullmatch, entries)):
                raise ValueError
            rows.append(tuple(map(int, entries)))
        except ValueError:  # also int()'s limit on the number of digits
            raise MatrixFormatError(f"row {r} contains a non-integer entry") from None
    return GeneratorMatrix(p, k, n, tuple(rows))


def _header_int(digits: str, line: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise MatrixFormatError(f"line {line}: {too_many_digits(digits)}") from None


def mi_vector(G: GeneratorMatrix, i: int) -> tuple[int, ...]:
    """The vector m_i of row i (1-based): n ints, (p - g_ij) mod p on the right block, else 0."""
    if not 1 <= i <= G.k:
        raise ValueError(f"row index {i} out of range [1, {G.k}]")
    return (0,) * G.k + tuple((G.p - g) % G.p for g in G.rows[i - 1][G.k :])


def _mi_vectors(G: GeneratorMatrix) -> list[tuple[int, ...]]:
    """m_1, ..., m_k; ValueError, before any term is built, if they ask for too many terms."""
    vectors = [mi_vector(G, i) for i in range(1, G.k + 1)]
    total = 0
    for mi in vectors:
        size = 1  # row i's closed form and translated generator have prod_j (m_ij + 1) terms
        for cap in mi:
            size *= cap + 1
            if total + size > MAX_CLOSED_FORM_TERMS:
                raise ValueError(f"the closed form has more than {MAX_CLOSED_FORM_TERMS} terms")
        total += size
    return vectors


def lex_code_basis(G: GeneratorMatrix) -> list[Polynomial]:
    """The reduced lex Groebner basis of the code ideal.

    k binomials X_i - X^{m_i} followed by the field relations X_i^p - 1
    for the free columns.
    """
    ring = Ring(G.p, G.n, Order.LEX)
    out = [ring.poly([(1, variable(i, G.n)), (G.p - 1, mi_vector(G, i))]) for i in range(1, G.k + 1)]
    for i in range(G.k + 1, G.n + 1):
        power = tuple(G.p if j == i - 1 else 0 for j in range(G.n))
        out.append(ring.poly([(1, power), (G.p - 1, (0,) * G.n)]))
    return out


def translated_generators(G: GeneratorMatrix) -> list[Polynomial]:
    """Generators of the code ideal after translating (1, ..., 1) to the origin.

    The substitution X_i -> X_i + 1 applied to the lex basis, fully
    expanded and normalized under the negative degree lexicographic order:
    (X_i + 1) + (p-1) * prod_{j in supp(m_i)} (X_j + 1)^(p - g_ij) for the
    identity columns and (X_i + 1)^p + (p - 1) for the free columns.
    """
    ring = Ring(G.p, G.n, Order.NEGDEGLEX)
    out = []
    for i, mi in enumerate(_mi_vectors(G), start=1):
        prod_part = ring.constant(G.p - 1)
        for j, cap in enumerate(mi, start=1):
            if cap:
                prod_part = prod_part * (ring.variable(j) + 1) ** cap
        out.append(ring.variable(i) + 1 + prod_part)
    for i in range(G.k + 1, G.n + 1):
        out.append((ring.variable(i) + 1) ** G.p + (G.p - 1))
    return out


def closed_form_basis(G: GeneratorMatrix) -> list[Polynomial]:
    """The closed-form standard basis of the translated code ideal.

    For each identity column i with support {j_1 < ... < j_s} and caps
    c_l = p - g_(i, j_l), the element is

        X_i - sum over (t_1, ..., t_s) != 0, 0 <= t_l <= c_l of
              prod_h C(c_h, t_h) * X_(j_h)^(t_h)

    with binomial coefficients reduced mod p; an empty support leaves the
    bare X_i. The free columns contribute the pure powers X_i^p. All
    elements are bound to the negative degree lexicographic order.

    The terms are built as words directly: the word of a product of powers
    is the sum of t_h times the word of X_(j_h), one factor at a time, and
    the expansion starts from -1, so the minus sign is already in every
    coefficient. Each factor asks the field for one binomial row
    C(c_h, 0..c_h) mod p, built in O(c_h) operations mod p. No coefficient
    is 0 mod p, since every cap is below p, and no two terms share a
    monomial, so the terms need no merging: X_i takes the place of the
    constant term, the first one built, and one sort by word puts them in
    order.
    """
    ring = Ring(G.p, G.n, Order.NEGDEGLEX)
    p, binom, x_word = G.p, ring.field.binom, ring.variable_word
    out = []
    for i, mi in enumerate(_mi_vectors(G), start=1):
        terms = [(p - 1, monomials.ONE)]
        for j, cap in enumerate(mi, start=1):
            if cap:
                x = x_word(j)
                powers = [(b, t * x) for t, b in enumerate(binom(cap))]
                terms = [(c * b % p, m + xt) for c, m in terms for b, xt in powers]
        terms[0] = (1, x_word(i))
        terms.sort(key=itemgetter(1), reverse=ring.descending)
        out.append(Polynomial(ring, tuple(terms)))
    for i in range(G.k + 1, G.n + 1):
        power = tuple(G.p if j == i - 1 else 0 for j in range(G.n))
        out.append(ring.term(1, power))
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Three independent checks of the closed-form standard basis."""

    generators_match: bool
    standard_basis_ok: bool
    leading_terms_ok: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.generators_match and self.standard_basis_ok and self.leading_terms_ok


def verify_closed_form(G: GeneratorMatrix, *, drop_index: int | None = None) -> VerificationReport:
    """Verify the closed-form basis against the translated generators.

    Checks that (a) the closed form equals the expanded translated
    generators as normalized sets, (b) it passes the standard-basis
    criterion including two-way generation, and (c) its leading terms are
    exactly X_1..X_k and X_(k+1)^p..X_n^p. drop_index removes one element
    from the closed form first, as a negative control. A detail names the
    first failure: for (a) the first missing generator, else the first extra
    element, in list order; for (c) the largest differing leading monomial.
    """
    closed = closed_form_basis(G)
    translated = translated_generators(G)
    if drop_index is not None:
        if not 0 <= drop_index < len(closed):
            raise ValueError(f"drop index {drop_index} out of range [0, {len(closed)})")
        closed = closed[:drop_index] + closed[drop_index + 1 :]

    detail = ""
    closed_set, translated_set = set(closed), set(translated)
    generators_match = closed_set == translated_set
    if not generators_match:
        missing = [g for g in translated if g not in closed_set]
        extra = [f for f in closed if f not in translated_set]
        side, sample = ("missing", missing[0]) if missing else ("extra", extra[0])
        detail = f"closed form {side} element {sample!s}"

    check: BasisCheck = is_standard_basis(closed, translated)
    if not check and not detail:
        detail = check.detail

    ring = translated[0].ring  # n >= 1 elements, even when closed is empty
    x_word = ring.variable_word
    expected = {x_word(i) for i in range(1, G.k + 1)}
    expected |= {G.p * x_word(i) for i in range(G.k + 1, G.n + 1)}
    actual = {f.leading_monomial for f in closed}
    leading_ok = actual == expected
    if not leading_ok and not detail:
        diff = max(actual.symmetric_difference(expected), key=ring.key)
        detail = f"leading-term set differs at {Polynomial(ring, ((1, diff),))!s}"

    return VerificationReport(generators_match, bool(check), leading_ok, detail)


def random_matrix(rng, p: int, k: int, n: int) -> GeneratorMatrix:
    """Standard-form matrix with a uniformly random right block."""
    rows = []
    for r in range(k):
        identity = [1 if c == r else 0 for c in range(k)]
        rows.append(tuple(identity + [rng.randrange(p) for _ in range(n - k)]))
    return GeneratorMatrix(p, k, n, tuple(rows))

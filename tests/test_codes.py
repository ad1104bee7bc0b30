"""Generator matrices, code ideals, translated generators, closed form."""

import math
import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest

from codegb import codes, gfp, monomials, mora, poly
from codegb.buchberger import groebner, reduce_basis
from codegb.codes import (
    GeneratorMatrix,
    MatrixFormatError,
    closed_form_basis,
    lex_code_basis,
    mi_vector,
    parse_matrix,
    random_matrix,
    translated_generators,
    verify_closed_form,
)
from codegb.division import divide
from codegb.monomials import Order
from codegb.mora import standard_basis
from codegb.parsing import print_poly
from codegb.poly import Polynomial, Ring

from helpers import (
    CLOSED_FORM_LINES,
    EXAMPLE_MATRIX,
    LEX_BASIS_LINES,
    count_calls,
    random_code,
    random_codeword,
    standard_form_matrices,
    wrap_everywhere,
)


@pytest.fixture
def G():
    return parse_matrix(EXAMPLE_MATRIX)


def test_parse_example(G):
    assert (G.p, G.k, G.n) == (3, 3, 6)
    assert G.rows[1] == (0, 1, 0, 2, 1, 0)


def test_parse_accepts_comments_and_blank_lines():
    text = "# generator matrix\np=2\n\nk=1 n=2  # sizes\n1 1\n"
    G = parse_matrix(text)
    assert (G.p, G.k, G.n) == (2, 1, 2)


def test_parse_rejects_nonprime():
    with pytest.raises(MatrixFormatError, match="not prime"):
        parse_matrix("p=4\nk=1 n=2\n1 1\n")


def test_parse_rejects_non_standard_form():
    with pytest.raises(MatrixFormatError, match="row 1 col 1"):
        parse_matrix("p=3\nk=2 n=3\n0 1 0\n1 0 0\n")


def test_parse_rejects_bad_shapes():
    with pytest.raises(MatrixFormatError, match="k <= n"):
        parse_matrix("p=3\nk=3 n=2\n1 0\n0 1\n0 0\n")
    with pytest.raises(MatrixFormatError, match="rows"):
        parse_matrix("p=3\nk=2 n=2\n1 0\n")
    with pytest.raises(MatrixFormatError, match="entries"):
        parse_matrix("p=3\nk=1 n=3\n1 0\n")
    with pytest.raises(MatrixFormatError, match="outside"):
        parse_matrix("p=3\nk=1 n=2\n1 7\n")
    # entries are ASCII decimal digits, as in polynomial text; int() alone
    # would read 1_0 as 10, +2 as 2 and an Arabic-Indic digit as a digit
    for entry in ("x", "1_0", "+2", "\u0663", "1" * 5000):
        with pytest.raises(MatrixFormatError, match="row 1 contains a non-integer entry"):
            parse_matrix(f"p=3\nk=1 n=2\n1 {entry}\n")
    with pytest.raises(MatrixFormatError, match="expected 'p=<prime>' on line 2"):
        parse_matrix("# code\np=\u0663\nk=1 n=2\n1 1\n")
    with pytest.raises(MatrixFormatError, match="expected 'k=<int> n=<int>' on line 3"):
        parse_matrix("p=3\n\nk=\u0661 n=2\n1 1\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("just nonsense\n")
    # lines end at '\n' only and fields are separated by spaces or tabs only
    for text, message in [
        ("p=3\nk=1\xa0n=2\n1 1\n", "expected 'k=<int> n=<int>' on line 2, got 'k=1\\xa0n=2'"),
        ("p=3\xa0\nk=1 n=2\n1 1\n", "expected 'p=<prime>' on line 1, got 'p=3\\xa0'"),
        ("p=3\nk=1 n=2\n1\xa01\n", "row 1 contains a non-integer entry"),
        ("p=3\nk=1 n=2\n1 1\f\n", "row 1 contains a non-integer entry"),
        ("p=3\nk=1 n=2\n1 1\x85\n", "row 1 contains a non-integer entry"),
        ("p=3\rk=1 n=2\r1 1\r", "expected a p= line and a k=/n= line"),
    ]:
        with pytest.raises(MatrixFormatError) as exc:
            parse_matrix(text)
        assert str(exc.value) == message
    plain = parse_matrix("p=3\nk=1 n=2\n1 1\n")
    for text in ("p=3\r\nk=1\tn=2\r\n1\t1\r\n", "p=3\n# a\u2028b\n\tk=1 \t n=2\r\n1 \t 1\t\n"):
        assert parse_matrix(text) == plain


def test_mi_vectors(G):
    assert mi_vector(G, 1) == (0, 0, 0, 2, 0, 2)
    assert mi_vector(G, 2) == (0, 0, 0, 1, 2, 0)
    assert mi_vector(G, 3) == (0, 0, 0, 1, 1, 2)
    with pytest.raises(ValueError):
        mi_vector(G, 4)


def test_mi_vector_empty_support():
    G = parse_matrix("p=3\nk=1 n=2\n1 0\n")
    assert mi_vector(G, 1) == (0, 0)


def test_lex_code_basis(G):
    assert [print_poly(f) for f in lex_code_basis(G)] == LEX_BASIS_LINES


def test_lex_code_basis_full_rate():
    G = parse_matrix("p=3\nk=2 n=2\n1 0\n0 1\n")
    assert [print_poly(f) for f in lex_code_basis(G)] == ["X1+2", "X2+2"]


def test_lex_code_basis_binary_repetition():
    G = parse_matrix("p=2\nk=1 n=2\n1 1\n")
    assert [print_poly(f) for f in lex_code_basis(G)] == ["X1+X2", "X2^2+1"]


def test_translated_binary_power():
    G = parse_matrix("p=2\nk=1 n=2\n1 1\n")
    gens = translated_generators(G)
    assert print_poly(gens[1]) == "X2^2"


def test_translated_row_matches_closed_form_element(G):
    gens = translated_generators(G)
    closed = closed_form_basis(G)
    assert gens[0] == closed[0]  # the expanded product collapses to the sum form


def test_translated_pure_power_over_f3():
    ring = Ring(3, 6, Order.NEGDEGLEX)
    expanded = (ring.variable(4) + 1) ** 3 + 2
    assert print_poly(expanded) == "X4^3"


def test_closed_form_golden(G):
    assert [print_poly(f) for f in closed_form_basis(G)] == CLOSED_FORM_LINES


def test_closed_form_empty_support_row():
    G = parse_matrix("p=5\nk=1 n=3\n1 0 0\n")
    closed = closed_form_basis(G)
    assert print_poly(closed[0]) == "X1"


def test_closed_form_binary_is_subset_sums():
    rng = random.Random(414)
    for _ in range(10):
        k = rng.randint(1, 3)
        n = rng.randint(k, 6)
        G = random_matrix(rng, 2, k, n)
        ring = Ring(2, n, Order.NEGDEGLEX)
        closed = closed_form_basis(G)
        for i in range(1, k + 1):
            support = [j for j, cap in enumerate(mi_vector(G, i), start=1) if cap]
            terms = [(1, tuple(1 if j == i - 1 else 0 for j in range(n)))]
            for size in range(1, len(support) + 1):
                for subset in combinations(support, size):
                    mono = tuple(1 if j + 1 in subset else 0 for j in range(n))
                    terms.append((1, mono))  # -1 == 1 mod 2
            assert closed[i - 1] == ring.poly(terms)


@pytest.mark.parametrize("p, g", [(1009, 337), (4001, 1334), (2**61 - 1, 2**61 - 6)])
def test_closed_form_over_a_large_prime_with_a_middle_cap(p, g):
    # caps 672, 2 667 and 5: X1 minus one binomial row, against math.comb
    G = GeneratorMatrix(p, 1, 2, ((1, g),))
    ring = Ring(p, 2, Order.NEGDEGLEX)
    c = p - g
    row = [(-math.comb(c, t) % p, (0, t)) for t in range(1, c + 1)]
    assert closed_form_basis(G) == [ring.poly([(1, (1, 0)), *row]), ring.poly([(1, (0, p))])]


def test_closed_form_asks_one_binomial_row_per_support_variable(G, monkeypatch):
    caps = []
    binom = gfp.PrimeField.binom
    monkeypatch.setattr(gfp.PrimeField, "binom", lambda field, c: caps.append(c) or binom(field, c))
    assert [print_poly(f) for f in closed_form_basis(G)] == CLOSED_FORM_LINES
    assert caps == [2, 2, 1, 2, 1, 1, 2]  # the caps of m_1, m_2 and m_3, in support order


@pytest.mark.parametrize("build", [closed_form_basis, translated_generators])
def test_closed_form_size_is_capped_before_any_term_is_built(G, build, monkeypatch):
    # the rows of the example code have prod_j (m_ij + 1) = 9, 6 and 12 terms
    monkeypatch.setattr(codes, "MAX_CLOSED_FORM_TERMS", 27)
    assert [len(f.terms) for f in build(G)[: G.k]] == [9, 6, 12]
    monkeypatch.setattr(codes, "MAX_CLOSED_FORM_TERMS", 26)

    def built(*args):
        raise AssertionError("built a binomial row or a polynomial")

    monkeypatch.setattr(gfp.PrimeField, "binom", built)
    monkeypatch.setattr(Polynomial, "__init__", built)
    with pytest.raises(ValueError, match="^the closed form has more than 26 terms$"):
        build(G)


@pytest.mark.parametrize("build", [closed_form_basis, translated_generators])
def test_the_largest_code_in_use_is_below_the_size_cap(build):
    # p=3, n=12 all ones: 3^11 = 177 147 terms in X1's element, and 11 pure powers
    G = GeneratorMatrix(3, 1, 12, ((1,) * 12,))
    assert [len(f.terms) for f in build(G)] == [3**11] + [1] * 11


def test_closed_form_constant_term_is_zero():
    rng = random.Random(88)
    for _ in range(20):
        G = random_code(rng)
        for f in closed_form_basis(G):
            assert all(any(f.ring.exponents(m)) for _, m in f.terms)  # origin is a common zero
            assert all(0 < c < G.p for c, _ in f.terms)


def test_translated_equals_closed_form_random():
    rng = random.Random(2024)
    for _ in range(25):
        G = random_code(rng)
        assert set(translated_generators(G)) == set(closed_form_basis(G))


def test_codeword_binomials_reduce_to_zero():
    rng = random.Random(31415)
    for _ in range(5):
        G = random_code(rng)
        basis = lex_code_basis(G)
        ring = basis[0].ring
        for _ in range(20):
            c = random_codeword(rng, G)
            c2 = random_codeword(rng, G)
            binomial = ring.poly([(1, c), (G.p - 1, c2)])
            assert divide(binomial, basis).remainder.is_zero


def test_code_basis_is_reduced_groebner_random():
    rng = random.Random(999)
    for _ in range(8):
        G = random_code(rng)
        basis = lex_code_basis(G)
        assert reduce_basis(groebner(basis)) == basis


def test_leading_terms_agree_with_mora_route(monkeypatch):
    # the translated generators' leading words X_1..X_k, X_(k+1)^p..X_n^p are
    # pairwise coprime, so the product criterion skips every pair
    counts = count_calls(monkeypatch, (mora, "weak_normal_form"))
    rng = random.Random(777)
    for _ in range(30):
        G = random_code(rng, ps=(2, 3, 5, 7))
        closed = {f.leading_monomial for f in closed_form_basis(G)}
        computed = {f.leading_monomial for f in standard_basis(translated_generators(G))}
        x_word = Ring(G.p, G.n, Order.NEGDEGLEX).variable_word
        expected = {x_word(i) for i in range(1, G.k + 1)}
        expected |= {G.p * x_word(i) for i in range(G.k + 1, G.n + 1)}
        assert closed == computed == expected, G
    assert counts == {"weak_normal_form": 0}


def test_verify_detail_does_not_depend_on_the_hash_seed():
    # two closed-form elements dropped: the detail names the first missing
    # translated generator, X1's, whatever order a set of them iterates in
    code = textwrap.dedent(f"""
        from codegb import codes
        full = codes.closed_form_basis
        codes.closed_form_basis = lambda G: full(G)[2:]
        print(codes.verify_closed_form(codes.parse_matrix({EXAMPLE_MATRIX!r})).detail)
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("1", "6"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs == [f"closed form missing element {CLOSED_FORM_LINES[0]}\n"] * 2


def test_verify_closed_form(G):
    report = verify_closed_form(G)
    assert report.ok
    assert report.generators_match and report.standard_basis_ok and report.leading_terms_ok


def test_verify_negative_control(G):
    report = verify_closed_form(G, drop_index=4)
    assert not report.ok
    assert report.detail
    with pytest.raises(ValueError):
        verify_closed_form(G, drop_index=10)


# the exhaustively verified class: p = 2 with n <= 5, p = 3 with n <= 4, p = 5 with n <= 3
SWEPT = [(p, n) for p, top in ((2, 5), (3, 4), (5, 3)) for n in range(1, top + 1)]


@pytest.mark.parametrize("p, n", SWEPT)
def test_every_small_standard_form_code_passes_all_three_checks(p, n):
    # 425 codes over the twelve (p, n), about 0.3 s in all
    matrices = list(standard_form_matrices(p, n))
    assert len(set(matrices)) == len(matrices) == sum(p ** (k * (n - k)) for k in range(1, n + 1))
    for G in matrices:
        report = verify_closed_form(G)
        assert report.ok, (G, report.detail)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dropping_any_closed_form_element_of_a_small_binary_code_is_named(n):
    # 970 drops over the 206 binary codes with 2 <= n <= 5, about 0.25 s in all
    for G in standard_form_matrices(2, n):
        for index, f in enumerate(closed_form_basis(G)):
            report = verify_closed_form(G, drop_index=index)
            assert not report.generators_match, (G, index)
            assert report.detail == f"closed form missing element {f}", (G, index)


def test_generator_matrix_direct_validation():
    with pytest.raises(MatrixFormatError):
        GeneratorMatrix(3, 2, 3, ((1, 0, 0), (0, 2, 0)))
    with pytest.raises(MatrixFormatError, match="^expected 2 rows, got 1$"):
        GeneratorMatrix(3, 2, 3, ((1, 0, 1),))


def test_random_matrix_is_deterministic():
    a = random_matrix(random.Random(5), 5, 2, 4)
    b = random_matrix(random.Random(5), 5, 2, 4)
    assert a == b


def test_verifying_draw_172_makes_a_pinned_number_of_divides_and_lcm_calls(monkeypatch):
    # Counted as the benchmark's tracer counts them: the module function is
    # wrapped at every binding in the package. The reduction loops call
    # monomials.divides and lcm rather than inlining them, so these counts stay
    # fixed. The completion loop takes an lcm only for a pair that the product
    # criterion keeps, and s_polynomial none for two one-term polynomials.
    counts = count_calls(monkeypatch, (monomials, "divides"), (monomials, "lcm"))
    # draw #172 of random_code(Random(20240815)), the slowest known verify
    report = verify_closed_form(GeneratorMatrix(5, 1, 6, ((1, 1, 2, 1, 1, 2),)))
    assert report.ok
    assert counts == {"divides": 40047, "lcm": 5}


def test_verifying_a_wide_code_makes_a_pinned_number_of_divides_and_lcm_calls(monkeypatch):
    # p=3, k=1, n=100, row 1 1 1 1 0...0: 100 closed-form elements, 99 of them
    # pure powers X_j^3. Each basis is prepared once and indexed, so a step
    # tests only the reducers that share a variable with lm(h), where testing
    # every reducer in every call made 146 522 divides calls; the 4 851 pairs
    # of pure powers take no lcm, and the 99 pairs with X1+... one each.
    counts = count_calls(monkeypatch, (monomials, "divides"), (monomials, "lcm"))
    n = 100
    assert verify_closed_form(GeneratorMatrix(3, 1, n, ((1, 1, 1, 1) + (0,) * (n - 4),))).ok
    assert counts == {"divides": 12962, "lcm": 99}


@pytest.mark.parametrize(
    "G, calls, steps",
    [
        # draw #172, as above
        (GeneratorMatrix(5, 1, 6, ((1, 1, 2, 1, 1, 2),)), 17, 10007),
        # a verify-wide code: its 304-term closed form reduces by pure powers X_j^5
        (GeneratorMatrix(5, 1, 5, ((1, 1, 1, 2, 3),)), 14, 1206),
    ],
)
def test_verifier_makes_a_pinned_number_of_weak_normal_forms_and_steps(monkeypatch, G, calls, steps):
    # Counted as the benchmark's tracer counts them: a step is a PrimeField.inv
    # call made inside weak_normal_form, whatever kind of reducer it uses.
    counts = {"calls": 0, "steps": 0}
    inside = [False]

    def count_wnf(original):
        def counted(*args, **kwargs):
            counts["calls"] += 1
            inside[0] = True
            try:
                return original(*args, **kwargs)
            finally:
                inside[0] = False

        return counted

    inv = gfp.PrimeField.inv

    def count_inv(self, a):
        counts["steps"] += inside[0]
        return inv(self, a)

    wrap_everywhere(monkeypatch, mora, "weak_normal_form", count_wnf)
    monkeypatch.setattr(gfp.PrimeField, "inv", count_inv)
    assert verify_closed_form(G).ok
    assert counts == {"calls": calls, "steps": steps}


def test_verifying_a_verify_wide_code_pops_no_heap_entry(monkeypatch):
    # A reduction walks its dividend's own sorted run and heaps only the words
    # a step creates. This code's 1 206 steps (pinned above) drop h's leading
    # term by a pure power X_j^5 or cancel it in place, and create no word.
    counts = count_calls(monkeypatch, (poly, "heappop"), (poly, "heappush"))
    assert verify_closed_form(GeneratorMatrix(5, 1, 5, ((1, 1, 1, 2, 3),))).ok
    assert counts == {"heappop": 0, "heappush": 0}

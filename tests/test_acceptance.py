"""Acceptance suite: every criterion prints one pass/fail line.

All arithmetic is exact, so every comparison is exact equality. Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import random
import time
from itertools import combinations

import pytest

from codegb.buchberger import groebner, reduce_basis
from codegb.cli import main
from codegb.codes import (
    closed_form_basis,
    lex_code_basis,
    mi_vector,
    translated_generators,
)
from codegb.division import divide
from codegb.monomials import Order, divides
from codegb.mora import is_standard_basis, standard_basis, weak_normal_form
from codegb.parsing import parse_poly, print_poly
from codegb.poly import Ring

from helpers import (
    CLOSED_FORM_LINES,
    EXAMPLE_MATRIX,
    G2,
    naive_reduction,
    random_code,
    random_codeword,
    random_local_divisor,
    random_nonzero_poly,
    random_poly,
)

SEED = 20240815


def report(name, ok, detail=""):
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def matrices200():
    rng = random.Random(SEED)
    return [random_code(rng) for _ in range(200)]


@pytest.fixture(scope="module")
def artifacts(matrices200):
    out = []
    for G in matrices200:
        translated = translated_generators(G)
        out.append((G, closed_form_basis(G), translated, standard_basis(translated)))
    return out


def expected_leading_monomials(G):
    lms = {tuple(1 if j == i - 1 else 0 for j in range(G.n)) for i in range(1, G.k + 1)}
    lms |= {
        tuple(G.p if j == i - 1 else 0 for j in range(G.n))
        for i in range(G.k + 1, G.n + 1)
    }
    return lms


def test_01_golden_example_closed_form(capsys, tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text(EXAMPLE_MATRIX)
    start = time.perf_counter()
    code = main(["standard-basis", str(path), "--method", "closed-form"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = code == 0 and out.splitlines() == CLOSED_FORM_LINES and elapsed < 1.0
        report("01 golden F3 [6,3] closed-form reproduction", ok, f"elapsed {elapsed:.3f}s")


def test_02_translated_generators_equal_closed_form(matrices200):
    start = time.perf_counter()
    failures = []
    for idx, G in enumerate(matrices200):
        if set(translated_generators(G)) != set(closed_form_basis(G)):
            failures.append(idx)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(
        "02 expanded generators equal closed form on 200 matrices",
        ok,
        f"failures {failures[:3]}, elapsed {elapsed:.1f}s",
    )


def test_03_standard_basis_verification_with_negative_controls(artifacts):
    failures = []
    for idx, (G, closed, translated, _) in enumerate(artifacts):
        check = is_standard_basis(closed, translated)
        if not check.ok:
            failures.append((idx, check.detail))
            continue
        if {f.ring.exponents(f.leading_monomial) for f in closed} != expected_leading_monomials(G):
            failures.append((idx, "leading-term set mismatch"))
            continue
        for drop in range(len(closed)):
            candidate = closed[:drop] + closed[drop + 1 :]
            if is_standard_basis(candidate, translated).ok:
                failures.append((idx, f"drop {drop} still verifies"))
                break
    report(
        "03 standard-basis checks plus drop-one negative controls",
        not failures,
        str(failures[:3]),
    )


def test_04_mora_route_matches_closed_form_leading_terms(artifacts):
    failures = []
    for idx, (G, closed, _, sb) in enumerate(artifacts):
        if {f.leading_monomial for f in sb} != {f.leading_monomial for f in closed}:
            failures.append(idx)
    report("04 computed standard bases match closed-form leading terms", not failures, str(failures[:3]))


def test_05_lex_basis_is_reduced_groebner_and_contains_codewords(matrices200):
    rng = random.Random(SEED + 5)
    failures = []
    for idx, G in enumerate(matrices200):
        basis = lex_code_basis(G)
        if reduce_basis(groebner(basis)) != basis:
            failures.append((idx, "basis not fixed by completion"))
            continue
        ring = basis[0].ring
        for _ in range(100):
            c = random_codeword(rng, G)
            c2 = random_codeword(rng, G)
            binomial = ring.poly([(1, c), (G.p - 1, c2)])
            if not divide(binomial, basis).remainder.is_zero:
                failures.append((idx, f"binomial {print_poly(binomial)} not in ideal"))
                break
    report("05 lex code bases reduced-Groebner fixpoint and membership", not failures, str(failures[:3]))


def test_06_divergent_input_terminates_with_certificate():
    ring = Ring(3, 1, Order.NEGDEGLEX)
    f = parse_poly("X1", ring)
    g = parse_poly("X1+2X1^2", ring)
    result = weak_normal_form(f, [g])
    identity = result.unit * f - result.coefficients[0] * g - result.normal_form
    ok = (
        result.normal_form.is_zero
        and identity.is_zero
        and result.unit.leading_term == ring.one().leading_term
    )
    _, steps, exceeded = naive_reduction(f, [g], budget=50)
    report(
        "06 local-order pathology: Mora terminates, naive loop exceeds 50 steps",
        ok and exceeded,
        f"naive steps {steps}",
    )


def test_07_mora_certificates_on_random_instances():
    rng = random.Random(SEED + 7)
    failures = 0
    max_recorded = 0
    resampled = 0
    done = 0
    while done < 1000:
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 4)
        ring = Ring(p, n, Order.NEGDEGLEX)
        f = random_poly(ring, rng, max_terms=5, max_deg=5)
        divisors = [
            random_local_divisor(ring, rng, max_terms=4, max_deg=5)
            for _ in range(rng.randint(1, 3))
        ]
        try:
            # rare adversarial draws terminate only after astronomically
            # many steps; budget them out and draw a fresh instance
            result = weak_normal_form(f, divisors, max_steps=1000)
        except ValueError:
            resampled += 1
            assert resampled < 50
            continue
        done += 1
        max_recorded = max(max_recorded, result.recorded)
        acc = result.unit * f
        for a, g in zip(result.coefficients, divisors):
            acc = acc - a * g
        if acc != result.normal_form:
            failures += 1
            continue
        if result.unit.leading_term != ring.one().leading_term:
            failures += 1
            continue
        if result.normal_form and any(
            divides(g.leading_monomial, result.normal_form.leading_monomial, ring.guards)
            for g in divisors
        ):
            failures += 1
    report(
        "07 Mora certificate identity on 1000 random instances",
        failures == 0,
        f"{failures} failures; max recorded intermediates {max_recorded}; resampled {resampled}",
    )


def test_08_division_contract_on_random_instances():
    rng = random.Random(SEED + 8)
    failures = 0
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 4)
        order = rng.choice([Order.LEX, Order.DEGLEX, Order.DEGREVLEX])
        ring = Ring(p, n, order)
        f = random_poly(ring, rng, max_terms=6, max_deg=5)
        divisors = [
            random_nonzero_poly(ring, rng, max_terms=4, max_deg=4)
            for _ in range(rng.randint(1, 3))
        ]
        result = divide(f, divisors)
        rebuilt = result.remainder
        for a, g in zip(result.quotients, divisors):
            rebuilt = rebuilt + a * g
        if rebuilt != f:
            failures += 1
            continue
        if any(
            divides(g.leading_monomial, mono, ring.guards)
            for _, mono in result.remainder.terms
            for g in divisors
        ):
            failures += 1
    report("08 division identity and remainder contract on 1000 instances", failures == 0, f"{failures} failures")


def test_09_binary_closed_form_is_subset_sums():
    rng = random.Random(SEED + 9)
    failures = []
    for idx in range(50):
        G = random_code(rng, ps=(2,))
        ring = Ring(2, G.n, Order.NEGDEGLEX)
        closed = closed_form_basis(G)
        for i in range(1, G.k + 1):
            support = [j for j, cap in enumerate(mi_vector(G, i), start=1) if cap]
            terms = [(1, tuple(1 if j == i - 1 else 0 for j in range(G.n)))]
            for size in range(1, len(support) + 1):
                for subset in combinations(support, size):
                    terms.append((1, tuple(1 if j + 1 in subset else 0 for j in range(G.n))))
            if closed[i - 1] != ring.poly(terms):
                failures.append((idx, i))
        for i in range(G.k + 1, G.n + 1):
            expected = ring.term(1, tuple(2 if j == i - 1 else 0 for j in range(G.n)))
            if closed[i - 1] != expected:
                failures.append((idx, i))
    report("09 binary matrices give the subset-sum closed form", not failures, str(failures[:3]))


def test_10_parser_round_trip_and_golden_print():
    rng = random.Random(SEED + 10)
    failures = 0
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 6)
        order = rng.choice(list(Order))
        ring = Ring(p, n, order)
        f = random_poly(ring, rng, max_terms=6, max_deg=6)
        if parse_poly(print_poly(f), ring) != f:
            failures += 1
    golden = print_poly(parse_poly(G2, Ring(3, 6, Order.NEGDEGLEX))) == G2
    report(
        "10 parse/print round trip on 1000 polynomials plus golden line",
        failures == 0 and golden,
        f"{failures} round-trip failures, golden={'ok' if golden else 'bad'}",
    )

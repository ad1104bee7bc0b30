"""Mora weak normal forms, standard bases, and the basis checker."""

import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from codegb.codes import parse_matrix, translated_generators
from codegb.monomials import Order, divides
from codegb import ecart, monomials, mora
from codegb.mora import (
    BasisCheck,
    CertificateError,
    is_standard_basis,
    standard_basis,
    weak_normal_form,
)
from codegb.parsing import parse_poly
from codegb.poly import Ring, s_polynomial

from helpers import (
    EXAMPLE_MATRIX,
    G1,
    count_calls,
    naive_reduction,
    random_local_divisor,
    random_nonzero_poly,
    random_poly,
)


@pytest.fixture
def local1():
    return Ring(3, 1, Order.NEGDEGLEX)


@pytest.fixture
def translated():
    return translated_generators(parse_matrix(EXAMPLE_MATRIX))


def verify_certificate(f, divisors, result):
    acc = result.unit * f
    for a, g in zip(result.coefficients, divisors):
        acc = acc - a * g
    assert acc == result.normal_form
    assert result.unit.leading_term == f.ring.one().leading_term
    if result.normal_form:
        lm = result.normal_form.leading_monomial
        assert not any(divides(g.leading_monomial, lm, f.ring.guards) for g in divisors)
    if f:
        for a, g in zip(result.coefficients, divisors):
            if a:
                prod = a * g
                assert f.ring.key(prod.leading_monomial) <= f.ring.key(f.leading_monomial)


def test_divergence_input_terminates(local1):
    f = parse_poly("X1", local1)
    g = parse_poly("X1+2X1^2", local1)  # X - X^2
    result = weak_normal_form(f, [g])
    assert result.normal_form.is_zero
    assert result.unit == parse_poly("1+2X1", local1)  # 1 - X
    assert result.coefficients == (local1.one(),)
    assert result.recorded == 1
    verify_certificate(f, [g], result)


def test_naive_loop_diverges_on_same_input(local1):
    f = parse_poly("X1", local1)
    g = parse_poly("X1+2X1^2", local1)
    _, steps, exceeded = naive_reduction(f, [g], budget=50)
    assert exceeded and steps > 50


def test_zero_input(local1):
    g = parse_poly("X1+2X1^2", local1)
    result = weak_normal_form(local1.zero(), [g])
    assert result.normal_form.is_zero
    assert result.unit == local1.one()


def test_spoly_with_pure_power_reduces_to_zero(translated):
    ring = translated[0].ring
    g1 = parse_poly(G1, ring)
    x43 = ring.term(1, (0, 0, 0, 3, 0, 0))
    result = weak_normal_form(s_polynomial(g1, x43), [x43])
    assert result.normal_form.is_zero
    verify_certificate(s_polynomial(g1, x43), [x43], result)


def test_global_order_rejected():
    ring = Ring(3, 1, Order.LEX)
    f = ring.variable(1)
    with pytest.raises(ValueError, match="divide"):
        weak_normal_form(f, [f])


def test_zero_divisor_rejected(local1):
    with pytest.raises(ValueError):
        weak_normal_form(local1.variable(1), [local1.zero()])


def test_selection_prefers_earliest_on_ecart_ties():
    ring = Ring(3, 2, Order.NEGDEGLEX)
    g_a = parse_poly("X1+X1X2", ring)
    g_b = parse_poly("X1+X1^2", ring)  # same lm, same ecart
    result = weak_normal_form(parse_poly("X1", ring), [g_a, g_b])
    assert result.coefficients[0] == ring.one()
    assert result.coefficients[1].is_zero


def test_max_steps_budget():
    ring = Ring(5, 4, Order.NEGDEGLEX)
    f = parse_poly("2X1^2X3+3X1X2X3X4+4X1X4^3+3X2X3^2X4", ring)
    divisors = [
        parse_poly("X1^2+3X1X3^2X4+2X1^2X2^2X4+2X1X2X3X4^2", ring),
        parse_poly("X1^2X2+2X1X2X3+4X1X2X4+2X1X2^2X3", ring),
        parse_poly("4X4+2X1^2X4", ring),  # monomial times a unit: reduction churns
    ]
    with pytest.raises(ValueError, match="exceeded"):
        weak_normal_form(f, divisors, max_steps=200)


def test_max_steps_counts_reductions_only():
    ring = Ring(3, 2, Order.NEGDEGLEX)
    f, g = parse_poly("X1+X2", ring), parse_poly("X1", ring)
    result = weak_normal_form(f, [g], max_steps=1)  # one reduction, then no reducer matches X2
    assert result.normal_form == parse_poly("X2", ring)
    with pytest.raises(ValueError, match="exceeded 0 "):
        weak_normal_form(f, [g], max_steps=0)
    # a negative budget is refused before any step, whether f reduces or not
    for h in (parse_poly("X2", ring), g):
        with pytest.raises(ValueError, match="^max_steps must be non-negative, got -1$"):
            weak_normal_form(h, [g], max_steps=-1)


def test_certificate_check_survives_optimize_flag():
    # A corrupted accumulator must still be caught when python -O strips asserts.
    code = textwrap.dedent(
        """
        import sys
        from codegb import poly
        from codegb.monomials import Order
        from codegb.mora import CertificateError, weak_normal_form
        from codegb.parsing import parse_poly

        assert sys.flags.optimize, "not running under -O"
        ring = poly.Ring(3, 2, Order.NEGDEGLEX)
        f, g = parse_poly("X1+X2", ring), parse_poly("X1", ring)
        weak_normal_form(f, [g])  # the intact certificate passes
        to_poly = poly.TermAccumulator.to_poly
        poly.TermAccumulator.to_poly = lambda self: to_poly(self) + self.ring.variable(1)
        try:
            weak_normal_form(f, [g])
        except CertificateError as exc:
            print(type(exc).__name__, exc)
        """
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("CertificateError certificate identity")
    assert issubclass(CertificateError, ArithmeticError)


def test_certificate_check_rejects_each_corrupted_part():
    ring = Ring(3, 2, Order.NEGDEGLEX)
    f = parse_poly("X1+X2^2", ring)
    divisors = [parse_poly("X1+2X1^2", ring), parse_poly("X2+X1X2", ring)]
    result = weak_normal_form(f, divisors)
    assert result.recorded and len(result.unit.terms) > 1 and all(result.coefficients)
    mora._check_certificate(f, divisors, result)  # the intact certificate passes

    bump = ring.term(1, (2, 3))
    coefficients = list(result.coefficients)
    coefficients[1] = coefficients[1] + bump
    corrupted = {
        "h": result._replace(normal_form=result.normal_form + bump),
        "u": result._replace(unit=result.unit + bump),
        "a_1": result._replace(coefficients=tuple(coefficients)),
        # scaling u, the a_i and h by 2 keeps the identity; only lt(u) = 1 breaks
        "lt(u)": result._replace(
            normal_form=result.normal_form * 2,
            unit=result.unit * 2,
            coefficients=tuple(a * 2 for a in result.coefficients),
        ),
    }
    for bad in corrupted.values():
        with pytest.raises(CertificateError):
            mora._check_certificate(f, divisors, bad)
    with pytest.raises(CertificateError, match="leading term 1"):
        mora._check_certificate(f, divisors, corrupted["lt(u)"])


def test_certificate_check_rejects_corrupted_cofactors_of_a_one_term_run():
    # every step reduces by a one-term divisor; the last two divisors never
    # reduce, so their cofactors are zero
    ring = Ring(5, 2, Order.NEGDEGLEX)
    f = parse_poly("X1+2X2^2+3X1X2", ring)
    divisors = [parse_poly(text, ring) for text in ("2X1", "X2^2", "X2^3", "X1^2X2")]
    lines = []
    result = weak_normal_form(f, divisors, trace=lines.append)
    assert [line.rsplit(" ", 1)[1] for line in lines] == ["2X1", "2X1", "X2^2"]
    assert not result.normal_form and result.unit == ring.one()
    assert [bool(a) for a in result.coefficients] == [True, True, False, False]
    mora._check_certificate(f, divisors, result)  # the intact certificate passes

    bump = ring.term(1, (2, 3))
    for i in range(len(divisors)):  # a nonzero cofactor corrupted, a zero one made nonzero
        coefficients = list(result.coefficients)
        coefficients[i] = coefficients[i] + bump
        with pytest.raises(CertificateError, match="identity"):
            mora._check_certificate(f, divisors, result._replace(coefficients=tuple(coefficients)))


def test_certificate_check_rejects_each_corrupted_part_of_a_unit_one_run():
    # u = 1, so the check compares f itself; a_1*f_1 is a general product
    # (both factors contain X1) and a_2*f_2 is a one-term one (a_2 = 2)
    ring = Ring(5, 2, Order.NEGDEGLEX)
    f = parse_poly("2X1+2X1^2+4X1X2", ring)
    divisors = [parse_poly("X1+3X1^2", ring), parse_poly("2X1X2+X2^2", ring)]
    result = weak_normal_form(f, divisors)
    assert result.unit == ring.one() and result.normal_form
    assert [str(a) for a in result.coefficients] == ["2+X1", "2"]
    mora._check_certificate(f, divisors, result)  # the intact certificate passes

    bump = ring.term(1, (2, 3))
    corrupted = [
        result._replace(unit=result.unit + bump),
        result._replace(unit=result.unit * 2),
        result._replace(normal_form=result.normal_form + bump),
    ]
    for i in range(len(divisors)):  # a cofactor given an extra term, and one scaled
        for change in (lambda a: a + bump, lambda a: a * 2):
            coefficients = list(result.coefficients)
            coefficients[i] = change(coefficients[i])
            corrupted.append(result._replace(coefficients=tuple(coefficients)))
    for bad in corrupted:
        with pytest.raises(CertificateError, match="identity"):
            mora._check_certificate(f, divisors, bad)


def test_certificates_random():
    rng = random.Random(2718)
    max_recorded = 0
    done = 0
    while done < 200:
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 4)
        ring = Ring(p, n, Order.NEGDEGLEX)
        f = random_poly(ring, rng, max_terms=5, max_deg=5)
        divisors = [
            random_local_divisor(ring, rng, max_terms=4, max_deg=5)
            for _ in range(rng.randint(1, 3))
        ]
        try:
            result = weak_normal_form(f, divisors, max_steps=1000)
        except ValueError:
            continue  # adversarial draw, terminates only after huge step counts
        done += 1
        verify_certificate(f, divisors, result)
        max_recorded = max(max_recorded, result.recorded)
    assert max_recorded < 50  # the reducer list stays finite
    print(f"max recorded intermediates over 200 runs: {max_recorded}")


def test_recorded_intermediate_ecart_is_the_ecart_of_its_snapshot():
    # the step reads h's ecart off its smallest word; a recorded reducer computes its own
    pattern = re.compile(r"record intermediate (\S+) \(ecart (\d+) < (\d+)\)")
    recorded = 0
    for seed in range(100):
        rng = random.Random(seed)
        ring = Ring(rng.choice((2, 3, 5)), rng.randint(1, 4), Order.NEGDEGLEX)
        f = random_nonzero_poly(ring, rng)
        divisors = [random_local_divisor(ring, rng) for _ in range(rng.randint(1, 3))]
        lines = []
        try:
            weak_normal_form(f, divisors, trace=lines.append, max_steps=2000)
        except ValueError:
            pass  # the lines traced before the cap still count
        for line in lines:
            m = pattern.fullmatch(line)
            if m:
                h, a, b = parse_poly(m[1], ring), int(m[2]), int(m[3])
                assert ecart(h) == a < b
                recorded += 1
    assert recorded > 40


def test_agrees_with_plain_loop_when_nothing_recorded():
    rng = random.Random(1414)
    seen = 0
    for _ in range(300):
        ring = Ring(3, rng.randint(1, 3), Order.NEGDEGLEX)
        f = random_poly(ring, rng, max_terms=4, max_deg=4)
        divisors = [random_local_divisor(ring, rng, max_terms=3, max_deg=3) for _ in range(2)]
        result = weak_normal_form(f, divisors)
        if result.recorded:
            continue
        h, _, exceeded = naive_reduction(f, divisors, budget=500)
        assert not exceeded
        assert h == result.normal_form
        seen += 1
    assert seen > 50


def test_coprime_pairs_reduce_to_zero_against_the_pair():
    # the justification for skipping coprime-lm pairs in the completion loop
    from codegb.buchberger import product_criterion

    rng = random.Random(97)
    checked = 0
    while checked < 20:
        ring = Ring(3, 3, Order.NEGDEGLEX)
        f = random_local_divisor(ring, rng, max_terms=3, max_deg=3)
        g = random_local_divisor(ring, rng, max_terms=3, max_deg=3)
        if not product_criterion(f, g):
            continue
        s = s_polynomial(f, g)
        if s:
            try:
                result = weak_normal_form(s, [f, g], max_steps=2000)
            except ValueError:
                continue
            assert result.normal_form.is_zero
        checked += 1


def test_standard_basis_trivial_cases(local1):
    g = parse_poly("X1+2X1^2", local1)
    assert standard_basis([g]) == [g]
    assert standard_basis([]) == []
    assert standard_basis([local1.zero()]) == []


def test_standard_basis_global_order_rejected():
    ring = Ring(3, 1, Order.LEX)
    with pytest.raises(ValueError, match="groebner"):
        standard_basis([ring.variable(1)])


def test_standard_basis_of_translated_ideal(translated):
    basis = standard_basis(translated)
    leading = {f.ring.exponents(f.leading_monomial) for f in basis}
    expected = {
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 3, 0, 0),
        (0, 0, 0, 0, 3, 0),
        (0, 0, 0, 0, 0, 3),
    }
    assert leading == expected


def test_standard_basis_completes_tangent_cone_pair():
    # f1 = X1^2 - X2^3, f2 = X1X2 - X1^3: the surviving S-pair yields X2^4 - X1^2X2^3
    ring = Ring(3, 2, Order.NEGDEGLEX)
    f1 = parse_poly("X1^2+2X2^3", ring)
    f2 = parse_poly("X1X2+2X1^3", ring)
    basis = standard_basis([f1, f2])
    leading = {ring.exponents(f.leading_monomial) for f in basis}
    assert leading == {(2, 0), (1, 1), (0, 4)}
    assert is_standard_basis(basis, [f1, f2]).ok


def test_standard_basis_leading_terms_independent_of_input_order(translated):
    expected = {f.leading_monomial for f in standard_basis(translated)}
    rng = random.Random(8)
    for _ in range(3):
        shuffled = translated[:]
        rng.shuffle(shuffled)
        assert {f.leading_monomial for f in standard_basis(shuffled)} == expected


def test_is_standard_basis_positive(translated):
    from codegb.codes import closed_form_basis

    closed = closed_form_basis(parse_matrix(EXAMPLE_MATRIX))
    check = is_standard_basis(closed, translated)
    assert check.ok and bool(check)


def test_is_standard_basis_detects_missing_element(translated):
    from codegb.codes import closed_form_basis

    # one row per failure return of the verifier: a generator outside the
    # candidate's ideal, a candidate element outside the generators' ideal,
    # and an S-polynomial with a nonzero weak normal form
    closed = closed_form_basis(parse_matrix(EXAMPLE_MATRIX))
    ring = closed[0].ring
    dropped = [f for f in closed if ring.exponents(f.leading_monomial) != (0, 0, 0, 3, 0, 0)]
    small = Ring(3, 2, Order.NEGDEGLEX)
    pair = [parse_poly("X1+X2^2", small), parse_poly("X1^2", small)]
    for candidate, gens, detail in [
        (dropped, translated, "generator X4^3 does not reduce to zero"),
        (
            closed + [ring.variable(4)],
            translated,
            "element X4 is not in the ideal the generators span",
        ),
        (pair, pair, "spoly of X1+X2^2 and X1^2 has nonzero normal form 2X2^4"),
    ]:
        assert is_standard_basis(candidate, gens) == BasisCheck(False, detail)
    assert is_standard_basis([pair[0], parse_poly("X2^4", small)], pair).ok


def test_is_standard_basis_singleton(local1):
    f = parse_poly("X1+2X1^2", local1)
    assert is_standard_basis([f], [f]).ok


def test_is_standard_basis_rejects_empty(local1):
    f = parse_poly("X1", local1)
    check = is_standard_basis([], [f])
    assert not check.ok and check.detail == "generator X1 does not reduce to zero"
    assert is_standard_basis([], []).ok  # the zero ideal


def test_standard_basis_tails_are_irreducible(translated):
    basis = standard_basis(translated)
    leading = [g.leading_monomial for g in basis]
    guards = basis[0].ring.guards
    for f in basis:
        for _, mono in f.terms[1:]:
            assert not any(divides(lm, mono, guards) for lm in leading)


@pytest.mark.parametrize(
    "length, calls", [(mora.INDEX_THRESHOLD, mora.INDEX_THRESHOLD), (mora.INDEX_THRESHOLD + 1, 1)]
)
def test_a_step_scans_every_reducer_up_to_the_threshold_and_the_index_above_it(
    monkeypatch, length, calls
):
    # X_1^2, ..., X_m^2 all have ecart 0, and only the last divides X_m^2: the
    # scan tests every one, the index only X_m^2, alone in X_m's bucket
    ring = Ring(3, length, Order.NEGDEGLEX)
    divisors = [ring.variable(j) ** 2 for j in range(1, length + 1)]
    counts = count_calls(monkeypatch, (monomials, "divides"))
    result = weak_normal_form(divisors[-1], divisors)
    assert not result.normal_form and result.coefficients[-1] == ring.one()
    assert counts == {"divides": calls}


def test_is_standard_basis_refuses_a_candidate_of_mixed_rings(local1):
    # the candidate is prepared once, so its rings are checked before any reduction
    other = Ring(5, 1, Order.NEGDEGLEX)
    for gens in ([], [local1.variable(1)]):
        with pytest.raises(ValueError, match="mixed polynomial contexts"):
            is_standard_basis([local1.variable(1), other.variable(1)], gens)

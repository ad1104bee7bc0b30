"""Tests of the benchmark itself: tracer arithmetic, output checks, traced runs.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Case, Code  # noqa: E402


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _synthetic_modules():
    lib = types.ModuleType("lib")

    def inner(x):
        _busy(0.002)
        return x + 1

    def outer(x):
        _busy(0.003)
        return lib.inner(x) + lib.inner(x)

    lib.inner, lib.outer = inner, outer
    user = types.ModuleType("user")
    user.inner = inner  # a second binding, as `from lib import inner` makes
    return lib, user


def test_self_time_adds_up_on_nested_calls_and_originals_are_restored():
    lib, user = _synthetic_modules()
    originals = (lib.inner, lib.outer)
    tracer = Tracer()
    tracer.wrap_function([lib, user], lib, "inner", "lib.inner", lambda args, r: (r,))
    tracer.wrap_function([lib, user], lib, "outer", "lib.outer")
    assert user.inner is lib.inner is not originals[0]

    assert lib.outer(1) == 4
    tracer.fold()
    inner, outer = tracer.aggregates["lib.inner"], tracer.aggregates["lib.outer"]
    assert (inner.calls, outer.calls) == (2, 1)
    assert inner.by_parent["lib.outer"][0] == 2
    # self times of a call tree add up to the time of its root span
    assert outer.self_s + inner.self_s == pytest.approx(outer.total_s, rel=1e-9)
    assert inner.self_s == pytest.approx(inner.total_s, rel=1e-9)
    assert outer.self_s >= 0.003 and inner.self_s >= 0.004

    assert user.inner(5) == 6
    tracer.fold()
    tracer.restore()
    assert (lib.inner, lib.outer, user.inner) == (originals[0], originals[1], originals[0])
    assert inner.calls == 3 and inner.by_parent[""][0] == 1
    assert inner.extra_sum == [2 + 2 + 6] and inner.extra_max == [6]


def test_self_time_is_exact_span_arithmetic():
    tracer = Tracer()
    tracer._spans.extend([
        (tracer._name_id("a"), -1, 0.0, 10.0, None),
        (tracer._name_id("b"), 0, 1.0, 4.0, None),
        (tracer._name_id("c"), 1, 2.0, 3.0, None),
        (tracer._name_id("b"), 0, 5.0, 9.0, None),
    ])
    tracer.fold()
    agg = tracer.aggregates
    assert agg["a"].self_s == 3.0 and agg["a"].total_s == 10.0
    assert agg["b"].self_s == 6.0 and agg["b"].total_s == 7.0
    assert agg["c"].self_s == 1.0
    assert sum(a.self_s for a in agg.values()) == agg["a"].total_s


def test_verify_check_rejects_wrong_exit_codes_and_output():
    code = Code(3, 1, 3, ((1, 2, 1),))
    items = [["verify", "{file}"], ["verify", "{file}", "--inject-drop", "1"]]
    case = Case(code, items, workloads.check_verify)
    ok = workloads.VERIFY_PASS
    fail = "generators-match: FAIL\nstandard-basis: FAIL\nleading-terms: FAIL\n"
    assert case.check(case, [(0, ok), (1, fail)]) == ["", ""]
    assert case.check(case, [(1, fail), (1, fail)])[0]
    assert case.check(case, [(0, ok), (0, ok)])[1]
    assert case.check(case, [(0, ok.replace("PASS", "FAIL", 1)), (1, fail)])[0]


def test_groebner_check_counts_standard_monomials():
    code = Code(3, 3, 6, ((1, 0, 0, 1, 0, 1), (0, 1, 0, 2, 1, 0), (0, 0, 1, 2, 2, 1)))
    case = Case(code, [["groebner", "{file}"]], workloads.check_groebner)
    lex_basis = "X1+2X4^2X6^2\nX2+2X4X5^2\nX3+2X4X5X6^2\nX4^3+2\nX5^3+2\nX6^3+2\n"
    assert case.check(case, [(0, lex_basis)]) == [""]
    dropped = "\n".join(lex_basis.splitlines()[:-1]) + "\n"
    assert case.check(case, [(0, dropped)])[0]
    extra = lex_basis + "X4^2\n"
    assert case.check(case, [(0, extra)])[0]
    assert case.check(case, [(2, lex_basis)])[0]


def test_construct_check_rejects_a_closed_form_with_one_element_dropped():
    code = Code(3, 3, 6, ((1, 0, 0, 1, 0, 1), (0, 1, 0, 2, 1, 0), (0, 0, 1, 2, 2, 1)))
    case = Case(code, [["standard-basis"], ["standard-basis"]], workloads.check_construct)
    lines = ["X1+X4", "X2+2X4", "X3+X5", "X4^3", "X5^3", "X6^3"]
    full = "\n".join(lines) + "\n"
    assert case.check(case, [(0, full), (0, full)]) == ["", ""]
    dropped = "\n".join(lines[:2] + lines[3:]) + "\n"
    assert all(case.check(case, [(0, full), (0, dropped)]))
    assert all(case.check(case, [(0, dropped), (0, dropped)]))
    assert all(case.check(case, [(0, full), (2, "")]))


def test_verify_mixed_draws_as_verify_random_does():
    run.import_codegb()
    from codegb.codes import random_matrix

    ours, theirs = random.Random(7), random.Random(7)
    for _ in range(50):
        code = workloads.draw_like_verify_random(ours)
        p = theirs.choice((2, 3, 5))
        k = theirs.randint(1, 3)
        G = random_matrix(theirs, p, k, theirs.randint(k, 6))
        assert (code.p, code.k, code.n, code.rows) == (G.p, G.k, G.n, G.rows)


def test_workloads_are_deterministic_in_the_seed():
    for make in workloads.WORKLOADS.values():
        first = [c.code for c in make(3)]
        assert first == [c.code for c in make(3)]
    assert [c.code for c in workloads.verify_mixed(3)] != [c.code for c in workloads.verify_mixed(4)]


def test_traced_and_untraced_passes_print_identical_stdout(tmp_path):
    cli = run.import_codegb()
    cases = []
    for make in workloads.WORKLOADS.values():
        pool = make(1)
        cases += sorted(pool, key=lambda c: sum(c.code.closed_form_sizes()))[:3]
    run.write_cases(cases, tmp_path)
    from codegb import cli as cli_module, mora, poly

    originals = [cli_module.main, mora.s_polynomial, poly.Ring.poly, poly.Polynomial.__radd__]
    speed = run.Speed()
    untraced = run.run_pass(cli, cases, speed)
    tracer = Tracer()
    run.install_tracer(tracer)
    try:
        assert mora.s_polynomial is not originals[1]
        traced = run.run_pass(cli, cases, speed, tracer, reference=untraced)
    finally:
        tracer.restore()
    assert untraced.errors == [""] * len(untraced.errors)
    assert traced.errors == [""] * len(traced.errors)
    assert traced.digests == untraced.digests
    values = run.layer_metrics(tracer, 1)
    assert values["cli.main.self_s"] > 0 and values["poly.ring_poly.calls"] > 0
    assert originals == [cli_module.main, mora.s_polynomial, poly.Ring.poly, poly.Polynomial.__radd__]


def test_tail_level_keeps_ten_samples_beyond():
    assert run.tail_level(20) == 50
    assert run.tail_level(40) == 75
    assert run.tail_level(118) == 90
    assert run.tail_level(4000) == 99

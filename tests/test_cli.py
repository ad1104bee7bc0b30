"""Command-line surface: output bytes, exit codes, determinism."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from codegb.cli import main

from helpers import CLOSED_FORM_LINES, EXAMPLE_MATRIX, LEX_BASIS_LINES

LEX_BASIS_FILE = "p=3 n=6\n" + "\n".join(LEX_BASIS_LINES) + "\n"


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text(EXAMPLE_MATRIX)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_groebner_golden(capsys, matrix_file):
    code, out, _ = run(capsys, "groebner", matrix_file)
    assert code == 0
    assert out.splitlines() == LEX_BASIS_LINES
    assert out.splitlines()[-1] == "X6^3+2"


def test_groebner_full_rate(capsys, tmp_path):
    path = tmp_path / "id.txt"
    path.write_text("p=3\nk=3 n=3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run(capsys, "groebner", str(path))
    assert code == 0
    assert out.splitlines() == ["X1+2", "X2+2", "X3+2"]


def test_groebner_other_global_order(capsys, matrix_file):
    code, out, _ = run(capsys, "groebner", matrix_file, "--order", "deglex")
    assert code == 0
    assert len(out.splitlines()) >= 6


def test_groebner_rejects_local_order(capsys, matrix_file):
    code, _, err = run(capsys, "groebner", matrix_file, "--order", "negdeglex")
    assert code == 2
    assert "error" in err


def test_malformed_matrix(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    for text, message in [
        ("not a matrix\n", "expected a p= line and a k=/n= line"),
        # numbers are ASCII decimal digits; header lines are named by file line
        ("# code\np=\u0663\nk=1 n=1\n1\n", "expected 'p=<prime>' on line 2, got 'p=\u0663'"),
        ("p=3\n\nk=1 n=\u0662\n1 0\n", "expected 'k=<int> n=<int>' on line 3, got 'k=1 n=\u0662'"),
        ("p=3\nk=1 n=2\n1 1_0\n", "row 1 contains a non-integer entry"),
        ("p=3\nk=1 n=2\n1 +2\n", "row 1 contains a non-integer entry"),
        # fields are separated by spaces or tabs and lines end at '\n' only
        ("p=3\nk=1\xa0n=2\n1 1\n", "expected 'k=<int> n=<int>' on line 2, got 'k=1\\xa0n=2'"),
        ("p=3\nk=1 n=3\n1\xa01 1\n", "row 1 contains a non-integer entry"),
        ("p=3\nk=1 n=2\n1 1\f\n", "row 1 contains a non-integer entry"),
        ("p=3\nk=1 n=2\n1\u20281\n", "row 1 contains a non-integer entry"),
        # the CLI reads the file's text as is: a bare '\r' ends no line
        ("p=3\rk=1 n=2\r1 1\r", "expected a p= line and a k=/n= line"),
    ]:
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "groebner", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    for text in ("p=3\r\nk=1\tn=2\r\n1\t1\r\n", "p=3\n k=1 \t n=2\t\n\t1 \t1  # row\n"):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "groebner", str(path))
        assert (code, out, err) == (0, "X1+2X2^2\nX2^3+2\n", "")


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "groebner", str(tmp_path / "nope.txt"))
    assert code == 2 and "error" in err


def test_standard_basis_closed_form_golden(capsys, matrix_file):
    code, out, _ = run(capsys, "standard-basis", matrix_file, "--method", "closed-form")
    assert code == 0
    assert out.splitlines() == CLOSED_FORM_LINES


def test_standard_basis_mora(capsys, matrix_file):
    code, out, _ = run(capsys, "standard-basis", matrix_file, "--method", "mora")
    assert code == 0
    assert out.splitlines() == CLOSED_FORM_LINES  # expanded generators equal the closed form here


def test_standard_basis_rejects_global_order(capsys, matrix_file):
    code, _, err = run(capsys, "standard-basis", matrix_file, "--order", "lex")
    assert code == 2 and "local" in err


def test_verify_pass(capsys, matrix_file):
    code, out, _ = run(capsys, "verify", matrix_file)
    assert code == 0
    assert out.splitlines()[:3] == [
        "generators-match: PASS",
        "standard-basis: PASS",
        "leading-terms: PASS",
    ]


def test_verify_inject_drop(capsys, matrix_file):
    code, out, _ = run(capsys, "verify", matrix_file, "--inject-drop", "3")
    assert code == 1
    assert "FAIL" in out and "detail:" in out


def test_verify_random(capsys):
    code, out, _ = run(capsys, "verify", "--random", "5", "--seed", "1")
    assert code == 0
    assert out.splitlines()[-1] == "verified 5/5"


def test_verify_needs_exactly_one_mode(capsys, matrix_file):
    code, _, err = run(capsys, "verify")
    assert code == 2
    code, _, err = run(capsys, "verify", matrix_file, "--random", "3")
    assert code == 2


@pytest.mark.parametrize("count", ["-1", "0"])
def test_verify_random_needs_a_positive_count(capsys, count):
    code, out, err = run(capsys, "verify", "--random", count)
    assert code == 2
    assert out == "" and err.startswith("error: --random needs N >= 1")


def test_verify_inject_drop_is_refused_with_random(capsys):
    code, out, err = run(capsys, "verify", "--random", "2", "--inject-drop", "0")
    assert code == 2
    assert out == "" and err.startswith("error: --inject-drop needs a matrix file")


@pytest.mark.parametrize("seed", ["0", "3"])
def test_verify_seed_is_refused_with_a_matrix_file(capsys, matrix_file, seed):
    code, out, err = run(capsys, "verify", matrix_file, "--seed", seed)
    assert code == 2
    assert out == "" and err == "error: --seed needs --random; it does not apply to a matrix file\n"


def test_verify_random_without_seed_uses_seed_0(capsys):
    default = run(capsys, "verify", "--random", "4")
    assert default == run(capsys, "verify", "--random", "4", "--seed", "0")
    assert default[0] == 0 and default[1].splitlines()[-1] == "verified 4/4"


def test_verify_matches_under_optimize_flag(tmp_path):
    # python -O strips asserts; every check behind verify's output must survive it
    path = tmp_path / "matrix.txt"
    path.write_text(EXAMPLE_MATRIX)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for extra in ([], ["--inject-drop", "0"]):
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, "-m", "codegb.cli", "verify", str(path), *extra],
                env=env, capture_output=True, timeout=120,
            )
            for flags in ([], ["-O"])
        )
        assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)
        assert plain.returncode == (1 if extra else 0)


def test_global_path_matches_under_optimize_flag(tmp_path):
    # groebner and nf under global orders: stdout, --trace stderr and exit code survive -O
    matrix, basis = tmp_path / "matrix.txt", tmp_path / "basis.txt"
    matrix.write_text(EXAMPLE_MATRIX)
    basis.write_text(LEX_BASIS_FILE)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for command in (
        ["groebner", str(matrix), "--order", "degrevlex", "--trace"],
        ["nf", "X1^2X2X3+X4X5^2", str(basis), "--order", "deglex", "--trace"],
    ):
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, "-m", "codegb.cli", *command],
                env=env, capture_output=True, timeout=120,
            )
            for flags in ([], ["-O"])
        )
        assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
            plain.returncode, plain.stdout, plain.stderr
        )
        assert plain.returncode == 0 and plain.stdout and plain.stderr.startswith(b"# ")


def test_nf_max_steps(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("p=3 n=1\nX1+2X1^2\n")
    code, out, err = run(capsys, "nf", "X1", str(basis), "--order", "negdeglex", "--max-steps", "0")
    assert code == 2
    assert out == "" and err == "error: weak normal form exceeded 0 reduction steps\n"
    code, out, err = run(capsys, "nf", "X1", str(basis), "--order", "negdeglex", "--max-steps", "-1")
    assert (code, out, err) == (2, "", "error: --max-steps must be non-negative, got -1\n")
    code, out, _ = run(capsys, "nf", "X1", str(basis), "--order", "negdeglex", "--max-steps", "2")
    assert code == 0
    assert out.splitlines() == ["NF: 0", "unit: 1+2X1"]
    # a runaway: the first divisor is a unit (leading term 2), so every term of
    # h is reducible and h keeps recording larger intermediates
    basis.write_text("p=3 n=3\n1X1X2X3+2+1X1X3\n2X1X2^2+1X1^2X2X3+2X2X3\n")
    f = "2X1^2X2X3^2+2X1X2+2+2+1X1X2^3"
    code, out, err = run(capsys, "nf", f, str(basis), "--order", "negdeglex", "--max-steps", "2000")
    assert (code, out) == (2, "")
    assert err == "error: weak normal form exceeded 2000 reduction steps\n"


def test_nf_max_steps_needs_a_local_order(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text(LEX_BASIS_FILE)
    code, out, err = run(capsys, "nf", "X1X2", str(basis), "--order", "lex", "--max-steps", "5")
    assert code == 2
    assert out == "" and "local order" in err


def test_nf_local_with_unit(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("p=3 n=1\nX1+2X1^2\n")
    code, out, _ = run(capsys, "nf", "X1", str(basis), "--order", "negdeglex")
    assert code == 0
    assert out.splitlines() == ["NF: 0", "unit: 1+2X1"]


def test_nf_global(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text(LEX_BASIS_FILE)
    code, out, _ = run(capsys, "nf", "X1X2", str(basis), "--order", "lex")
    assert code == 0
    assert out.splitlines() == ["NF: X5^2X6^2"]
    code, out, _ = run(capsys, "nf", "1", str(basis), "--order", "lex")
    assert out.splitlines() == ["NF: 1"]


def test_nf_bad_polynomial(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("p=3 n=1\nX1\n")
    code, _, err = run(capsys, "nf", "X9", str(basis))
    assert code == 2 and "error" in err
    basis.write_text("p=\u0663 n=1\nX1\n", encoding="utf-8")
    code, out, err = run(capsys, "nf", "X1", str(basis))
    assert (code, out) == (2, "")
    assert err == "error: line 1 col 1: expected 'p=<prime> n=<int>' header, got 'p=\u0663 n=1'\n"


def test_basis_file_errors_name_the_file_line_and_column(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    index_7 = "variable index 7 out of range [1, 2]"
    header = "expected 'p=<prime> n=<int>' header,"
    for text, message in [
        (
            "# a basis over F_3\np=3 n=2\n\nX1+X2  # first element\n    X1+X7\n",
            f"line 5 col 8: {index_7}",
        ),
        (
            "# a basis over F_3\n\n  p=3, n=2\nX1\n",
            f"line 3 col 3: {header} got 'p=3, n=2'",
        ),
        # lines end at '\n' only, as in polynomial text: other line breaks are
        # characters of the line, refused in a polynomial and kept in a comment
        ("p=3 n=2\nX1\fX2\n", "line 2 col 3: unexpected character '\\x0c'"),
        ("p=3 n=2\nX1\x0bX2\n", "line 2 col 3: unexpected character '\\x0b'"),
        ("p=3 n=2\nX1+X2\u2029X1\n", "line 2 col 6: unexpected character '\\u2029'"),
        ("p=3 n=2\n# no\u2028X1\nX1+X7\n", f"line 3 col 4: {index_7}"),
        ("p=3 n=2\n# no\x85\nX1+X7\n", f"line 3 col 4: {index_7}"),
        # the header's fields are separated by spaces or tabs only
        ("p=3\xa0n=2\nX1\n", f"line 1 col 1: {header} got 'p=3\\xa0n=2'"),
        ("p=3\u2003n=2\nX1\n", f"line 1 col 1: {header} got 'p=3\\u2003n=2'"),
        # the file's text is read as is, so a bare '\r' ends no line
        ("p=3 n=2\rX1\r", f"line 1 col 1: {header} got 'p=3 n=2\\rX1'"),
        ("# only a comment\n", "line 1 col 1: empty basis file"),
        ("p=3 n=0\n", "variable count must be at least 1"),
    ]:
        basis.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "nf", "X1", str(basis))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    for text in ("p=3\tn=2\r\nX1+X2\r\n\tX2\r\n", " p=3 \t n=2 # F_3\n\tX1+X2\t\n X2 \n"):
        basis.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "nf", "X1", str(basis))
        assert (code, out, err) == (0, "NF: 0\n", "")
    # inside a polynomial line '\r' is whitespace: the basis is {X1X2}
    basis.write_text("p=3 n=2\nX1\rX2\n", encoding="utf-8")
    code, out, err = run(capsys, "nf", "X2", str(basis))
    assert (code, out, err) == (0, "NF: X2\n", "")
    basis.write_bytes(b"p=3 n=2\n\xffX1\n")
    code, out, err = run(capsys, "nf", "X1", str(basis))
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte\n"


def test_nf_huge_prime_modulus_is_fast(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("p=1000000000000000003 n=1\nX1+2X1^2\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "nf", "X1", str(basis), "--order", "negdeglex")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines() == ["NF: 0", "unit: 1+2X1"]


def test_modulus_beyond_exact_primality_range_exits_2(capsys, tmp_path):
    p = "100000000000000000000000000067"  # 30 digits
    basis = tmp_path / "basis.txt"
    basis.write_text(f"p={p} n=1\nX1\n")
    code, _, err = run(capsys, "nf", "X1", str(basis))
    assert code == 2 and "modulus too large" in err
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(f"p={p}\nk=1 n=1\n1\n")
    code, _, err = run(capsys, "verify", str(matrix))
    assert code == 2 and "modulus too large" in err


def test_trace_goes_to_stderr(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("p=3 n=1\nX1+2X1^2\n")
    code, out, err = run(capsys, "nf", "X1", str(basis), "--order", "negdeglex", "--trace")
    assert code == 0
    assert out.splitlines() == ["NF: 0", "unit: 1+2X1"]
    assert err.startswith("#")


def test_output_is_deterministic(capsys, matrix_file):
    first = run(capsys, "standard-basis", matrix_file)
    second = run(capsys, "standard-basis", matrix_file)
    assert first == second


def test_verify_inject_drop_of_the_only_element_fails_the_checks(capsys, tmp_path):
    # an n=1 code has a one-element closed form; dropping it is a valid negative control
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("p=3\nk=1 n=1\n1\n")
    code, out, err = run(capsys, "verify", str(matrix), "--inject-drop", "0")
    assert (code, err) == (1, "")
    assert out == (
        "generators-match: FAIL\nstandard-basis: FAIL\nleading-terms: FAIL\n"
        "detail: closed form missing element X1\n"
    )


def test_exponent_bound_follows_p(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("p=3 n=2\nX2\n")
    code, out, err = run(capsys, "nf", "X1^40000", str(basis))
    assert (code, out) == (2, "")
    assert err == (
        "error: exponent 40000 in monomial (40000, 0) exceeds 32767, "
        "the largest exponent of this ring\n"
    )
    code, out, _ = run(capsys, "nf", "X1^32767", str(basis))
    assert (code, out) == (0, "NF: X1^32767\n")
    # a larger p gets 32-bit fields
    basis.write_text("p=16411 n=2\nX2\n")
    code, out, _ = run(capsys, "nf", "X1^40000", str(basis))
    assert (code, out) == (0, "NF: X1^40000\n")


def test_exponent_overflow_in_a_product_exits_2(capsys, tmp_path):
    # the reducer X1^2 + X1^20000 times X1^19998 would need X1^39998 > 32767
    basis = tmp_path / "basis.txt"
    basis.write_text("p=3 n=1\nX1^2+X1^20000\n")
    code, out, err = run(capsys, "nf", "X1^20000", str(basis), "--order", "negdeglex")
    assert (code, out) == (2, "")
    assert err == "error: exponent overflow: a product has an exponent above 32767\n"

"""Command-line surface: output bytes, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codegb import cli, codes
from codegb.cli import build_parser, main
from codegb.monomials import Order
from codegb.parsing import parse_poly
from codegb.poly import Ring

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


TOO_LONG = "a number of 5000 digits exceeds the limit of 4300"


def test_malformed_matrix(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    for text, message in [
        ("not a matrix\n", "expected a p= line and a k=/n= line"),
        # numbers are ASCII decimal digits; header lines are named by file line
        ("# code\np=\u0663\nk=1 n=1\n1\n", "expected 'p=<prime>' on line 2, got 'p=\u0663'"),
        ("p=3\n\nk=1 n=\u0662\n1 0\n", "expected 'k=<int> n=<int>' on line 3, got 'k=1 n=\u0662'"),
        ("p=3\nk=1 n=2\n1 1_0\n", "row 1 contains a non-integer entry"),
        # a number longer than int() converts is refused by its digit count, not echoed
        ("# code\np=" + "1" * 5000 + "\nk=1 n=1\n1\n", f"line 2: {TOO_LONG}"),
        ("p=3\nk=1 n=" + "2" * 5000 + "\n1 1\n", f"line 2: {TOO_LONG}"),
        ("p=3\nk=1 n=2\n1 +2\n", "row 1 contains a non-integer entry"),
        ("p=3\nk=2 n=3\n1 0 1\n", "expected 2 rows, got 1"),
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


ORDERS = ["lex", "deglex", "degrevlex", "negdeglex"]

# per subcommand, each argument: dest -> (option strings, choices, default, nargs)
CLI_SURFACE = {
    "groebner": {
        "matrix": ((), None, None, None),
        "order": (("--order",), ORDERS, "lex", None),
        "trace": (("--trace",), None, False, 0),
    },
    "standard-basis": {
        "matrix": ((), None, None, None),
        "method": (("--method",), ["closed-form", "mora"], "closed-form", None),
        "trace": (("--trace",), None, False, 0),
    },
    "verify": {
        "matrix": ((), None, None, "?"),
        "inject_drop": (("--inject-drop",), None, None, None),
        "random": (("--random",), None, None, None),
        "seed": (("--seed",), None, None, None),
    },
    "nf": {
        "poly": ((), None, None, None),
        "basis": ((), None, None, None),
        "order": (("--order",), ORDERS, "lex", None),
        "max_steps": (("--max-steps",), None, None, None),
        "trace": (("--trace",), None, False, 0),
    },
}


def test_cli_surface_is_pinned():
    # a new, removed or changed option shows up here; --help wording is argparse's own
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {
            a.dest: (tuple(a.option_strings), a.choices, a.default, a.nargs)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_SURFACE
    assert list(surface) == list(CLI_SURFACE)


# the CLI's own vocabulary, plus an unknown command, option prefixes, options
# with their value attached, and the tokens argparse reads specially
ARGV_TOKENS = [
    *CLI_SURFACE,
    "bogus",
    *sorted({s for command in CLI_SURFACE.values() for flags, *_ in command.values() for s in flags}),
    "-h",
    "--help",
    "--he",
    "--ord",
    "--inj",
    "--meth",
    "--max",
    "--order=deglex",
    "--inject-drop=1",
    "--",
    "-",
    "-1",
    "",
    "matrix.txt",
    "negdeglex",
    "mora",
    "3",
    "X1",
]


def _parse_outcome(parse, argv):
    """(namespace with func by name, exit code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:  # argparse's errors and --help
            code = exc.code
    if namespace is not None and "func" in namespace:
        namespace["func"] = namespace["func"].__name__
    return namespace, code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(list(CLI_SURFACE)) | st.sampled_from(ARGV_TOKENS), max_size=6))
@example(["verify", "matrix.txt", "extra"])  # a leftover positional
@example(["verify", "--", "matrix.txt"])
@example(["nf", "--", "X1", "matrix.txt"])
@example(["groebner", "matrix.txt", "--", "--order"])
def test_the_invoked_subcommand_parse_equals_the_full_parse(argv):
    # an argv that starts with a command is parsed by that subcommand's parser
    # alone; argparse must not tell the difference, also in its errors and --help
    with mock.patch.dict(os.environ, COLUMNS="80"):
        alone = _parse_outcome(cli.parse_args, argv)
        full = _parse_outcome(lambda tokens: build_parser().parse_args(tokens), argv)
    assert alone == full


@contextlib.contextmanager
def _counting_builds():
    """The prog of each ArgumentParser built, and the names of each add_argument call."""
    # counted at the class, so that a call through any parser or binding is seen
    progs, calls = [], []
    init, add_argument = argparse.ArgumentParser.__init__, argparse._ActionsContainer.add_argument

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    with mock.patch.object(argparse.ArgumentParser, "__init__", counting_init), \
            mock.patch.object(argparse._ActionsContainer, "add_argument", counting):
        yield progs, calls


VERIFY_BUILD = [("-h", "--help"), ("matrix",), ("--inject-drop",), ("--random",), ("--seed",)]


def test_main_builds_only_the_invoked_subcommands_arguments(matrix_file):
    with _counting_builds() as (progs, calls):
        assert main(["verify", matrix_file]) == 0
    # one parser, verify's own: its -h and four arguments
    assert progs == ["codegb verify"]
    assert calls == VERIFY_BUILD


def test_a_leftover_token_builds_the_full_parser(matrix_file, capsys):
    with _counting_builds() as (full_progs, full_calls):
        build_parser()
    # the top level and four subcommands, with five -h and 15 arguments
    assert full_progs == ["codegb", *(f"codegb {name}" for name in CLI_SURFACE)]
    assert len(full_calls) == 20
    with _counting_builds() as (progs, calls), pytest.raises(SystemExit) as exc:
        main(["verify", matrix_file, "extra"])
    assert exc.value.code == 2
    assert "codegb: error: unrecognized arguments: extra" in capsys.readouterr().err
    assert progs == ["codegb verify", *full_progs]
    assert calls == [*VERIFY_BUILD, *full_calls]


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


def test_standard_basis_takes_no_order_option(capsys, matrix_file):
    # both methods work under negdeglex; --order is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["standard-basis", matrix_file, "--order", "lex"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --order lex\n")


@pytest.mark.parametrize("method", ["closed-form", "mora"])
def test_standard_basis_over_a_large_prime_is_fast(capsys, tmp_path, method):
    # Mora's translated generator (X2 + 1)^p goes through the Frobenius map, not p squarings
    p = 2**61 - 1
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(f"p={p}\nk=1 n=2\n1 {p - 1}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "standard-basis", str(matrix), "--method", method)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, f"X1+{p - 1}X2\nX2^{p}\n", "")


# p=7 codes whose closed forms have 1 016, 3 045 and 7 168 terms (the largest
# element of the last has 6 048): the sha256 of `standard-basis` stdout, which
# both methods print byte for byte
LARGE_OUTPUTS = [
    pytest.param(
        "p=7\nk=4 n=9\n1 0 0 0 0 1 1 0 6\n0 1 0 0 1 3 0 2 4\n0 0 1 0 6 0 5 0 0\n0 0 0 1 5 0 2 6 6\n",
        "1dc975bae8f6cc7d8907cac69adaf81d167dfb663920e1e1f8d6054cfff2be7f",
        id="1016-terms",
    ),
    pytest.param(
        "p=7\nk=2 n=9\n1 0 6 1 0 2 6 0 3\n0 1 0 1 0 3 5 1 5\n",
        "83d70a1b66ebe37693b40b667a420e8c514833d94f43ab550f13767649127b1c",
        id="3045-terms",
    ),
    pytest.param(
        "p=7\nk=2 n=9\n1 0 6 0 1 0 4 3 4\n0 1 6 2 6 1 5 4 5\n",
        "7fd27ef593ce177af8df59d76cbc30ef05fd3030af905c8147eee58c12b5fb31",
        id="7168-terms",
    ),
]


@pytest.mark.parametrize("method", ["closed-form", "mora"])
@pytest.mark.parametrize("text, digest", LARGE_OUTPUTS)
def test_large_standard_basis_outputs_are_pinned(capsys, tmp_path, text, digest, method):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(text)
    code, out, err = run(capsys, "standard-basis", str(matrix), "--method", method)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_verify_inject_drop_needs_an_index(capsys, matrix_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", matrix_file, "--inject-drop"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith("error: argument --inject-drop: expected one argument\n")


def test_verify_random(capsys):
    code, out, _ = run(capsys, "verify", "--random", "5", "--seed", "1")
    assert code == 0
    assert out.splitlines()[-1] == "verified 5/5"


def test_verify_over_a_large_prime_is_fast(capsys, tmp_path):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("p=10007\nk=1 n=2\n1 10006\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(matrix))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        0, "generators-match: PASS\nstandard-basis: PASS\nleading-terms: PASS\n", ""
    )


@pytest.mark.parametrize(
    "basis, report",
    [
        (
            "X1+X2^2\nX1^2",
            "generators-match: PASS\nstandard-basis: FAIL\nleading-terms: FAIL\n"
            "detail: spoly of X1+X2^2 and X1^2 has nonzero normal form 2X2^4\n",
        ),
        (
            "X1+X2^2\nX2^4",
            "generators-match: PASS\nstandard-basis: PASS\nleading-terms: FAIL\n"
            "detail: leading-term set differs at X2^3\n",
        ),
    ],
)
def test_verify_reports_the_first_failing_check(capsys, tmp_path, monkeypatch, basis, report):
    # the closed form and the translated generators agree, so the later checks speak
    ring = Ring(3, 2, Order.NEGDEGLEX)
    polys = [parse_poly(line, ring) for line in basis.splitlines()]
    monkeypatch.setattr(codes, "closed_form_basis", lambda G: list(polys))
    monkeypatch.setattr(codes, "translated_generators", lambda G: list(polys))
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("p=3\nk=1 n=2\n1 0\n")
    assert run(capsys, "verify", str(matrix)) == (1, report, "")


def test_verify_random_reports_each_failure(capsys, monkeypatch):
    calls = []

    def fail_second(G):
        calls.append(G)
        if len(calls) == 2:
            return codes.VerificationReport(False, True, True, "injected")
        return codes.verify_closed_form(G)

    monkeypatch.setattr(cli, "verify_closed_form", fail_second)
    code, out, err = run(capsys, "verify", "--random", "3", "--seed", "0")
    assert (code, err) == (1, "")
    assert out == (
        "[0] p=3 k=2 n=2: OK\n[1] p=3 k=3 n=6: FAIL\ndetail: injected\n"
        "[2] p=2 k=1 n=5: OK\nverified 2/3\n"
    )


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


def _plain_and_optimized(command):
    """The runs of `python -m codegb.cli *command` without and with -O, output captured."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return [
        subprocess.run(
            [sys.executable, *flags, "-m", "codegb.cli", *command],
            env=env, capture_output=True, timeout=120,
        )
        for flags in ([], ["-O"])
    ]


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_reader_that_has_gone_exits_141_in_silence(tmp_path, unbuffered):
    # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe, buffered or not
    path = tmp_path / "matrix.txt"
    path.write_text(EXAMPLE_MATRIX)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "codegb.cli", "verify", str(path)],
            env=env, stdout=write, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


def test_verify_matches_under_optimize_flag(tmp_path):
    # python -O strips asserts; every check behind verify's output must survive it
    path = tmp_path / "matrix.txt"
    path.write_text(EXAMPLE_MATRIX)
    for extra in ([], ["--inject-drop", "0"]):
        plain, optimized = _plain_and_optimized(["verify", str(path), *extra])
        assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)
        assert plain.returncode == (1 if extra else 0)


def test_global_path_matches_under_optimize_flag(tmp_path):
    # groebner and nf under global orders: stdout, --trace stderr and exit code survive -O
    matrix, basis = tmp_path / "matrix.txt", tmp_path / "basis.txt"
    matrix.write_text(EXAMPLE_MATRIX)
    basis.write_text(LEX_BASIS_FILE)
    for command in (
        ["groebner", str(matrix), "--order", "degrevlex", "--trace"],
        ["nf", "X1^2X2X3+X4X5^2", str(basis), "--order", "deglex", "--trace"],
    ):
        plain, optimized = _plain_and_optimized(command)
        assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
            plain.returncode, plain.stdout, plain.stderr
        )
        assert plain.returncode == 0 and plain.stdout and plain.stderr.startswith(b"# ")


def test_local_path_matches_under_optimize_flag(tmp_path):
    # nf under negdeglex runs Mora: a recorded intermediate, and the known runaway cut
    # by --max-steps; exit code, stdout and --trace stderr survive -O
    small, runaway = tmp_path / "small.txt", tmp_path / "runaway.txt"
    small.write_text("p=3 n=1\nX1+2X1^2\n")
    runaway.write_text("p=3 n=3\n1X1X2X3+2+1X1X3\n2X1X2^2+1X1^2X2X3+2X2X3\n")
    local = ["--order", "negdeglex", "--trace"]
    for command, code, recorded in (
        (["nf", "X1", str(small), *local], 0, 1),
        (
            ["nf", "2X1^2X2X3^2+2X1X2+2+2+1X1X2^3", str(runaway), *local, "--max-steps", "200"],
            2,
            8,
        ),
    ):
        plain, optimized = _plain_and_optimized(command)
        assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
            plain.returncode, plain.stdout, plain.stderr
        )
        assert plain.returncode == code
        assert plain.stderr.count(b"# record intermediate ") == recorded


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
        # a number longer than int() converts is refused at its position, not echoed
        ("p=3 n=2\n\t X1+X2^" + "2" * 5000 + "\n", f"line 2 col 9: {TOO_LONG}"),
        ("\n p=3 n=" + "2" * 5000 + "\nX1\n", f"line 2 col 2: {TOO_LONG}"),
        # so is an exponent above the ring's bound
        (
            "p=3 n=2\nX2\n  X1+X2^" + "9" * 4000 + "\n",
            "line 3 col 9: exponent of X2 exceeds 32767, the largest exponent of this ring",
        ),
        ("p=3 n=0\n", "line 1 col 1: variable count must be at least 1"),
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


@pytest.mark.parametrize("order", ["lex", "negdeglex"])
def test_a_zero_basis_polynomial_is_refused_at_its_file_position(capsys, tmp_path, order):
    basis = tmp_path / "basis.txt"
    for line, col in [("0", 1), ("  X1-X1", 3), ("\t3  # 3 is 0 mod 3", 2)]:
        basis.write_text(f"p=3 n=2\nX1+X2\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, "nf", "X1", str(basis), "--order", order)
        message = f"line 3 col {col}: basis polynomial is zero; divisors must be nonzero"
        assert (code, out, err) == (2, "", f"error: {message}\n")


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
    assert err == "error: line 1 col 4: exponent of X1 exceeds 32767, the largest exponent of this ring\n"
    code, out, _ = run(capsys, "nf", "X1^32767", str(basis))
    assert (code, out) == (0, "NF: X1^32767\n")
    # a larger p gets 32-bit fields
    basis.write_text("p=16411 n=2\nX2\n")
    code, out, _ = run(capsys, "nf", "X1^40000", str(basis))
    assert (code, out) == (0, "NF: X1^40000\n")


def test_variable_count_is_at_most_65536(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("p=3 n=65536\nX1+X2\n")
    code, out, err = run(capsys, "nf", "X1", str(basis))
    assert (code, out, err) == (0, "NF: 2X2\n", "")
    basis.write_text("p=3 n=65537\nX1+X2\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", "X1", str(basis))
    assert time.perf_counter() - start < 0.1
    assert (code, out, err) == (2, "", "error: line 1 col 1: variable count 65537 exceeds 65536\n")


@pytest.mark.parametrize("text", [f"p={2**61 - 1}\nk=1 n=2\n1 1\n", "p=10007\nk=1 n=4\n1 1 1 1\n"])
def test_a_closed_form_too_large_to_build_exits_2_at_once(capsys, tmp_path, text):
    # 2^61 - 1 and 10 007^3 terms: refused before any is built, not a hang or a MemoryError
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(text)
    error = f"error: the closed form has more than {codes.MAX_CLOSED_FORM_TERMS} terms\n"
    for command in (["verify"], ["standard-basis"], ["standard-basis", "--method", "mora"]):
        start = time.perf_counter()
        code, out, err = run(capsys, *command, str(matrix))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", error)


def test_code_commands_need_x_to_the_p_to_fit(capsys, tmp_path):
    # X_i^p is in every closed form: p must stay below 2^63, the 64-bit exponent bound
    p = 9223372036854775837
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(f"p={p}\nk=1 n=2\n1 {p - 1}\n")
    for command in (["verify"], ["standard-basis"], ["standard-basis", "--method", "mora"]):
        code, out, err = run(capsys, *command, str(matrix))
        assert (code, out) == (2, "")
        assert err == (
            f"error: exponent {p} in monomial (0, {p}) exceeds {2**63 - 1}, "
            "the largest exponent of this ring\n"
        )


def test_exponent_overflow_in_a_product_exits_2(capsys, tmp_path):
    # the reducer X1^2 + X1^20000 times X1^19998 would need X1^39998 > 32767
    basis = tmp_path / "basis.txt"
    basis.write_text("p=3 n=1\nX1^2+X1^20000\n")
    code, out, err = run(capsys, "nf", "X1^20000", str(basis), "--order", "negdeglex")
    assert (code, out) == (2, "")
    assert err == "error: exponent overflow: a product has an exponent above 32767\n"

"""Write the CLI transcript corpus, tests/cli_corpus/*.json, from the current tree.

Each file is one command: its argv, the COLUMNS it runs at (argparse wraps
its usage lines to the terminal width), its input files inline, and the exit
code, stdout and stderr that command gives. tests/test_cli_corpus.py replays
every file in-process through cli.main and compares exactly. A change that
alters CLI output on purpose reruns this script, and the corpus diff shows in
review. Run it from the repository root:

    PYTHONPATH=src python tools/cli_corpus.py

The package comes from PYTHONPATH first, so pointing it at another checkout's
src writes that checkout's transcripts. Every command stays at p <= 7, except
the size-cap refusals, which exit before any term is built; the large-prime
outputs are pinned by sha256 in tests/test_cli.py instead. Files of commands
no longer listed are deleted.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "cli_corpus"
sys.path.insert(0, str(ROOT / "tests"))
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, so that it can name another tree

from helpers import CLOSED_FORM_LINES, EXAMPLE_MATRIX, LEX_BASIS_LINES, replay_cli  # noqa: E402

P2 = "p=2\nk=2 n=5\n1 0 1 1 0\n0 1 0 1 1\n"
P5 = "p=5\nk=1 n=4\n1 2 3 4\n"
P7 = "p=7\nk=2 n=4\n1 0 3 5\n0 1 2 6\n"
LEX_BASIS = "p=3 n=6\n" + "\n".join(LEX_BASIS_LINES) + "\n"
CLOSED_FORM_BASIS = "p=3 n=6\n" + "\n".join(CLOSED_FORM_LINES) + "\n"
RECORDING_BASIS = "p=3 n=1\nX1+2X1^2\n"  # Mora records an intermediate
RUNAWAY_BASIS = "p=3 n=3\n1X1X2X3+2+1X1X3\n2X1X2^2+1X1^2X2X3+2X2X3\n"
RUNAWAY_POLY = "2X1^2X2X3^2+2X1X2+2+2+1X1X2^3"
NF_POLY = "X1^2X2X3+X4X5^2"


def _cases():
    """(name, argv, files, columns) for every command of the corpus."""
    m3, m2, m5, m7 = ({"matrix.txt": t} for t in (EXAMPLE_MATRIX, P2, P5, P7))
    lex_basis, local_basis = {"basis.txt": LEX_BASIS}, {"basis.txt": CLOSED_FORM_BASIS}
    for order in ("lex", "deglex", "degrevlex"):
        yield f"groebner-{order}", ["groebner", "matrix.txt", "--order", order], m3
        yield f"groebner-{order}-trace", ["groebner", "matrix.txt", "--order", order, "--trace"], m3
    yield "groebner-p2-degrevlex", ["groebner", "matrix.txt", "--order", "degrevlex"], m2
    yield "groebner-p5", ["groebner", "matrix.txt"], m5
    yield "groebner-p7-deglex", ["groebner", "matrix.txt", "--order", "deglex"], m7
    yield "groebner-local-order-refused", ["groebner", "matrix.txt", "--order", "negdeglex"], m3
    for method in ("closed-form", "mora"):
        base = ["standard-basis", "matrix.txt", "--method", method]
        yield f"standard-basis-{method}", base, m3
        yield f"standard-basis-{method}-trace", [*base, "--trace"], m3
        for label, files in (("p2", m2), ("p5", m5), ("p7", m7)):
            yield f"standard-basis-{method}-{label}", base, files
    yield "verify", ["verify", "matrix.txt"], m3
    yield "verify-p7", ["verify", "matrix.txt"], m7
    for index in ("0", "3", "9", "-1"):
        yield f"verify-inject-drop-{index}", ["verify", "matrix.txt", "--inject-drop", index], m3
    yield "verify-random-20", ["verify", "--random", "20"], {}
    yield "verify-random-20-seed-7", ["verify", "--random", "20", "--seed", "7"], {}
    yield "verify-random-0", ["verify", "--random", "0"], {}
    yield "verify-matrix-and-random", ["verify", "matrix.txt", "--random", "3"], m3
    yield "verify-nothing", ["verify"], {}
    yield "verify-seed-needs-random", ["verify", "matrix.txt", "--seed", "1"], m3
    yield "verify-random-inject-drop", ["verify", "--random", "2", "--inject-drop", "0"], {}
    for order in ("lex", "deglex", "degrevlex"):
        yield f"nf-{order}-trace", ["nf", NF_POLY, "basis.txt", "--order", order, "--trace"], lex_basis
    yield "nf-lex", ["nf", NF_POLY, "basis.txt"], lex_basis
    local = ["--order", "negdeglex"]
    yield "nf-negdeglex", ["nf", NF_POLY, "basis.txt", *local], local_basis
    yield "nf-negdeglex-trace", ["nf", NF_POLY, "basis.txt", *local, "--trace"], local_basis
    yield "nf-negdeglex-record-trace", ["nf", "X1", "basis.txt", *local, "--trace"], {
        "basis.txt": RECORDING_BASIS
    }
    runaway = ["nf", RUNAWAY_POLY, "basis.txt", *local, "--max-steps", "200", "--trace"]
    yield "nf-max-steps-exceeded", runaway, {"basis.txt": RUNAWAY_BASIS}
    for steps in ("0", "2", "-1"):
        argv = ["nf", "X1", "basis.txt", *local, "--max-steps", steps]
        yield f"nf-max-steps-{steps}", argv, {"basis.txt": RECORDING_BASIS}
    yield "nf-max-steps-global-order", ["nf", "X1", "basis.txt", "--max-steps", "5"], lex_basis
    # exit 2, one command per message class
    yield "error-parse-basis-line-col", ["nf", "X1", "basis.txt"], {"basis.txt": "p=3 n=2\n  X1+X7\n"}
    yield "error-parse-basis-header", ["nf", "X1", "basis.txt"], {"basis.txt": "p=3, n=2\nX1\n"}
    yield "error-basis-header-not-prime", ["nf", "X1", "basis.txt"], {"basis.txt": "# F_4\n p=4 n=2\nX1\n"}
    yield "error-parse-poly-argument", ["nf", "X1+X9", "basis.txt"], {"basis.txt": "p=3 n=2\nX1\n"}
    yield "error-zero-basis-line", ["nf", "X1", "basis.txt"], {"basis.txt": "p=3 n=2\nX1+X2\nX1-X1\n"}
    yield "error-matrix-format", ["groebner", "matrix.txt"], {"matrix.txt": "p=3\nk=1 n=2\n1 x\n"}
    yield "error-not-prime", ["standard-basis", "matrix.txt"], {"matrix.txt": "p=4\nk=1 n=2\n1 1\n"}
    for command in (["verify"], ["standard-basis"], ["standard-basis", "--method", "mora"]):
        argv = [*command, "matrix.txt"]
        name = "-".join(["error-size-cap", *command[:1], *command[2:]])
        yield name, argv, {"matrix.txt": "p=10007\nk=1 n=4\n1 1 1 1\n"}
    yield "error-missing-file", ["groebner", "nope.txt"], {}
    # a UTF-8 byte-order mark starts a file's text only; anywhere else it is a character
    bom = "\ufeff"
    yield "verify-bom", ["verify", "matrix.txt"], {"matrix.txt": bom + EXAMPLE_MATRIX}
    yield "nf-bom", ["nf", NF_POLY, "basis.txt"], {"basis.txt": bom + LEX_BASIS}
    yield "error-bom-inside-basis", ["nf", "X1", "basis.txt"], {"basis.txt": "p=3 n=2\n" + bom + "X1\n"}
    yield "error-argparse-no-command", [], {}
    yield "error-argparse-bad-order", ["groebner", "matrix.txt", "--order", "revlex"], m3
    yield "error-argparse-inject-drop-needs-index", ["verify", "matrix.txt", "--inject-drop"], m3
    yield "error-argparse-not-an-int", ["verify", "--random", "many"], {}
    # argparse wraps usage to COLUMNS: the same command at two widths
    for columns in (80, 120):
        yield f"error-argparse-random-needs-n-{columns}", ["verify", "--random"], {}, columns
    yield "help", ["--help"], {}
    for command in ("groebner", "standard-basis", "verify", "nf"):
        yield f"help-{command}", [command, "--help"], {}
    yield "help-before-command", ["--help", "verify"], {}
    # the top-level parser refuses these, with its own usage line
    yield "error-argparse-unknown-command", ["bogus"], {}
    yield "error-argparse-unknown-option", ["verify", "matrix.txt", "--bogus"], m3
    yield "error-argparse-double-dash-first", ["--", "verify", "matrix.txt"], m3
    yield "error-argparse-negative-number-first", ["-1", "verify", "matrix.txt"], m3
    # a command-first argv is parsed by its subcommand's parser alone, unless a token is left over
    yield "error-argparse-extra-positional", ["verify", "matrix.txt", "extra"], m3
    yield "groebner-order-abbreviated", ["groebner", "matrix.txt", "--ord", "degrevlex"], m3
    yield "help-verify-abbreviated", ["verify", "--he"], {}
    yield "nf-double-dash", ["nf", "--", NF_POLY, "basis.txt"], lex_basis


def _lines(text: str) -> list[str]:
    # one JSON string per line keeps the corpus diff readable; "".join restores text
    return text.splitlines(keepends=True)


def main() -> int:
    import codegb

    print(f"writing {CORPUS} from {Path(codegb.__file__).parent}", file=sys.stderr)
    CORPUS.mkdir(parents=True, exist_ok=True)
    names = set()
    for name, argv, files, *columns in _cases():
        columns = columns[0] if columns else 80
        with tempfile.TemporaryDirectory() as workdir:
            code, out, err = replay_cli(argv, files, columns, workdir)
        record = {
            "argv": argv,
            "columns": columns,
            "files": {file: _lines(text) for file, text in files.items()},
            "exit": code,
            "stdout": _lines(out),
            "stderr": _lines(err),
        }
        # \u escapes keep characters such as a byte-order mark visible in the diff
        text = json.dumps(record, indent=1) + "\n"
        (CORPUS / f"{name}.json").write_text(text, encoding="utf-8")
        names.add(f"{name}.json")
    for stale in CORPUS.glob("*.json"):
        if stale.name not in names:
            stale.unlink()
    print(f"{len(names)} transcripts", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

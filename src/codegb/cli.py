"""Command-line interface.

Subcommands: groebner (reduced Groebner basis of a code ideal),
standard-basis (closed-form or Mora-computed standard basis of the
translated ideal), verify (three-check report on the closed form), and
nf (normal form of a polynomial against a basis file).

Exit codes: 0 success, 1 verification failure, 2 malformed input, 141
(128 + SIGPIPE) when the reader of stdout has gone, buffered or not.
Polynomials are printed one per line in canonical form; --trace sends
reduction events to stderr, so stdout stays byte-stable. Input files are
UTF-8, and a byte-order mark at the start of one is skipped.

The subcommands are one table, _COMMANDS, and build_parser() is the full
parser. An argv that starts with a command is parsed by that subcommand's
parser alone, since building the full parser took most of a small
command's time; any other argv, or one with tokens left over, by the full
parser. Both read every argv alike (see parse_args).
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys

from .buchberger import groebner, reduce_basis
from .codes import (
    closed_form_basis,
    lex_code_basis,
    parse_matrix,
    random_matrix,
    translated_generators,
    verify_closed_form,
)
from .division import divide
from .monomials import Order
from .mora import standard_basis, weak_normal_form
from .parsing import ParseError, content_lines, parse_poly, print_poly, too_many_digits
from .poly import Ring

_ORDER_CHOICES = [o.value for o in Order]


def _read(path: str) -> str:
    # newline="": the text as is, so content_lines alone decides where lines end;
    # utf-8-sig drops a byte-order mark that starts the file, and only that one
    with open(path, encoding="utf-8-sig", newline="") as file:
        return file.read()


def _make_trace(enabled: bool):
    if not enabled:
        return None
    return lambda message: print(f"# {message}", file=sys.stderr)


def _load_basis_file(text: str, order: Order):
    """Basis file: first line 'p=<prime> n=<int>', then one polynomial per line.

    Errors name the line and column in the file.
    """
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty basis file", 1, 1)
    (line, col, header), *body = lines
    m = re.fullmatch(r"p=([0-9]+)[ \t]+n=([0-9]+)", header)
    if not m:
        raise ParseError(f"expected 'p=<prime> n=<int>' header, got {header!r}", line, col)
    try:
        p, n = map(int, m.groups())
    except ValueError:  # more digits than int() converts
        raise ParseError(too_many_digits(max(m.groups(), key=len)), line, col) from None
    try:
        ring = Ring(p, n, order)
    except ValueError as exc:  # p not prime or too large, n out of range
        raise ParseError(str(exc), line, col) from None
    basis = []
    for line, col, poly_text in body:
        try:
            f = parse_poly(poly_text, ring)
        except ParseError as exc:
            raise ParseError(exc.message, line, col + exc.col - 1) from None
        if f.is_zero:
            raise ParseError("basis polynomial is zero; divisors must be nonzero", line, col)
        basis.append(f)
    return ring, basis


def cmd_groebner(args) -> int:
    G = parse_matrix(_read(args.matrix))
    order = Order(args.order)
    gens = lex_code_basis(G)
    if order is not Order.LEX:
        ring = Ring(G.p, G.n, order)
        gens = [ring.convert(f) for f in gens]
    basis = reduce_basis(groebner(gens, trace=_make_trace(args.trace)))
    for f in basis:
        print(print_poly(f))
    return 0


def cmd_standard_basis(args) -> int:
    G = parse_matrix(_read(args.matrix))
    if args.method == "closed-form":
        basis = closed_form_basis(G)
    else:
        basis = standard_basis(translated_generators(G), trace=_make_trace(args.trace))
    for f in basis:
        print(print_poly(f))
    return 0


def _print_report(report) -> None:
    for label, ok in [
        ("generators-match", report.generators_match),
        ("standard-basis", report.standard_basis_ok),
        ("leading-terms", report.leading_terms_ok),
    ]:
        print(f"{label}: {'PASS' if ok else 'FAIL'}")
    if not report.ok and report.detail:
        print(f"detail: {report.detail}")


def cmd_verify(args) -> int:
    if (args.matrix is None) == (args.random is None):
        raise ValueError("give either a matrix file or --random N")
    if args.random is not None:
        if args.random < 1:
            raise ValueError(f"--random needs N >= 1, got {args.random}")
        if args.inject_drop is not None:
            raise ValueError("--inject-drop needs a matrix file; it does not apply to --random")
    elif args.seed is not None:
        raise ValueError("--seed needs --random; it does not apply to a matrix file")
    if args.matrix is not None:
        G = parse_matrix(_read(args.matrix))
        report = verify_closed_form(G, drop_index=args.inject_drop)
        _print_report(report)
        return 0 if report.ok else 1
    rng = random.Random(0 if args.seed is None else args.seed)
    failures = 0
    for index in range(args.random):
        p = rng.choice((2, 3, 5))
        k = rng.randint(1, 3)
        n = rng.randint(k, 6)
        G = random_matrix(rng, p, k, n)
        report = verify_closed_form(G)
        status = "OK" if report.ok else "FAIL"
        print(f"[{index}] p={p} k={k} n={n}: {status}")
        if not report.ok:
            failures += 1
            print(f"detail: {report.detail}")
    print(f"verified {args.random - failures}/{args.random}")
    return 0 if failures == 0 else 1


def cmd_nf(args) -> int:
    order = Order(args.order)
    if args.max_steps is not None:
        if not order.is_local:
            raise ValueError(f"--max-steps needs a local order, got {order.value}")
        if args.max_steps < 0:
            raise ValueError(f"--max-steps must be non-negative, got {args.max_steps}")
    ring, basis = _load_basis_file(_read(args.basis), order)
    f = parse_poly(args.poly, ring)
    trace = _make_trace(args.trace)
    if order.is_local:
        result = weak_normal_form(f, basis, trace=trace, max_steps=args.max_steps)
        print(f"NF: {print_poly(result.normal_form)}")
        print(f"unit: {print_poly(result.unit)}")
    else:
        remainder = divide(f, basis, trace=trace).remainder
        print(f"NF: {print_poly(remainder)}")
    return 0


_MATRIX = ("matrix", dict(help="generator matrix file"))
_ORDER = ("--order", dict(choices=_ORDER_CHOICES, default="lex"))
_TRACE = ("--trace", dict(action="store_true", help="dump reduction steps to stderr"))

# name, help line, handler, and each argument's name and add_argument keywords
# in --help order
_COMMANDS = (
    ("groebner", "reduced Groebner basis of the code ideal", cmd_groebner, [
        _MATRIX,
        _ORDER,
        _TRACE,
    ]),
    ("standard-basis", "standard basis of the translated code ideal", cmd_standard_basis, [
        _MATRIX,
        ("--method", dict(choices=["closed-form", "mora"], default="closed-form")),
        _TRACE,
    ]),
    ("verify", "verify the closed-form standard basis", cmd_verify, [
        ("matrix", dict(nargs="?", help="generator matrix file")),
        ("--inject-drop", dict(
            type=int, metavar="IDX", help="drop one closed-form element first (negative control)"
        )),
        ("--random", dict(type=int, metavar="N", help="verify N random matrices")),
        ("--seed", dict(type=int, help="seed for --random")),
    ]),
    ("nf", "normal form of a polynomial against a basis file", cmd_nf, [
        ("poly", dict(help="polynomial, e.g. 'X1+2X4^2'")),
        ("basis", dict(help="basis file: 'p=<prime> n=<int>' header, one polynomial per line")),
        _ORDER,
        ("--max-steps", dict(
            type=int, metavar="N", help="give up after N reduction steps (local orders only)"
        )),
        _TRACE,
    ]),
)


def _add_arguments(parser: argparse.ArgumentParser, handler, arguments) -> None:
    """One subcommand's arguments, in --help order, and its handler as func."""
    for argument, options in arguments:
        parser.add_argument(argument, **options)
    parser.set_defaults(func=handler)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's full parser: every subcommand, each with its arguments."""
    parser = argparse.ArgumentParser(
        prog="codegb",
        description="Exact Groebner and standard bases for binomial ideals of linear codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, handler, arguments in _COMMANDS:
        _add_arguments(sub.add_parser(name, help=help_line), handler, arguments)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), with one parser when argv starts with a command.

    Then that subcommand's parser alone reads argv[1:], and the result is
    the full parser's, for these reasons:
    - The top level has no option but -h, and its subparsers action
      (nargs=PARSER) takes the command and every token after it, so the top
      level reads nothing else.
    - add_parser names the subparser "codegb <command>" and gives it no
      other setting (its help line goes to the top level's list), so this
      parser is built as that subparser is.
    - The subparsers action runs this same parse_known_args call and copies
      the result into a namespace whose only other attribute is command.
      Its leftover tokens become the top level's "unrecognized arguments"
      error.
    Leftovers, and an argv that does not start with a command (none, an
    option first, '--' or an unknown name), go to the full parser, which
    prints argparse's own errors and help.
    """
    for name, _, handler, arguments in _COMMANDS:
        if argv and argv[0] == name:
            parser = argparse.ArgumentParser(prog=f"codegb {name}")
            _add_arguments(parser, handler, arguments)
            namespace, leftover = parser.parse_known_args(argv[1:])
            if not leftover:
                namespace.command = name
                return namespace
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone; what is still buffered goes to devnull at exit, not to stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        # ParseError and MatrixFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: groebner (reduced Groebner basis of a code ideal),
standard-basis (closed-form or Mora-computed standard basis of the
translated ideal), verify (three-check report on the closed form), and
nf (normal form of a polynomial against a basis file).

Exit codes: 0 success, 1 verification failure, 2 malformed input.
Polynomials are printed one per line in canonical form; --trace sends
reduction events to stderr, so stdout stays byte-stable.
"""

from __future__ import annotations

import argparse
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
    # newline="": the text as is, so content_lines alone decides where lines end
    with open(path, encoding="utf-8", newline="") as file:
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
    ring = Ring(p, n, order)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codegb",
        description="Exact Groebner and standard bases for binomial ideals of linear codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_groe = sub.add_parser("groebner", help="reduced Groebner basis of the code ideal")
    p_groe.add_argument("matrix", help="generator matrix file")
    p_groe.add_argument("--order", choices=_ORDER_CHOICES, default="lex")
    p_groe.add_argument("--trace", action="store_true", help="dump reduction steps to stderr")
    p_groe.set_defaults(func=cmd_groebner)

    p_std = sub.add_parser(
        "standard-basis", help="standard basis of the translated code ideal"
    )
    p_std.add_argument("matrix", help="generator matrix file")
    p_std.add_argument("--method", choices=["closed-form", "mora"], default="closed-form")
    p_std.add_argument("--trace", action="store_true", help="dump reduction steps to stderr")
    p_std.set_defaults(func=cmd_standard_basis)

    p_ver = sub.add_parser("verify", help="verify the closed-form standard basis")
    p_ver.add_argument("matrix", nargs="?", help="generator matrix file")
    p_ver.add_argument(
        "--inject-drop",
        type=int,
        metavar="IDX",
        help="drop one closed-form element first (negative control)",
    )
    p_ver.add_argument("--random", type=int, metavar="N", help="verify N random matrices")
    p_ver.add_argument("--seed", type=int, help="seed for --random")
    p_ver.set_defaults(func=cmd_verify)

    p_nf = sub.add_parser("nf", help="normal form of a polynomial against a basis file")
    p_nf.add_argument("poly", help="polynomial, e.g. 'X1+2X4^2'")
    p_nf.add_argument("basis", help="basis file: 'p=<prime> n=<int>' header, one polynomial per line")
    p_nf.add_argument("--order", choices=_ORDER_CHOICES, default="lex")
    p_nf.add_argument(
        "--max-steps",
        type=int,
        metavar="N",
        help="give up after N reduction steps (local orders only)",
    )
    p_nf.add_argument("--trace", action="store_true", help="dump reduction steps to stderr")
    p_nf.set_defaults(func=cmd_nf)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ParseError and MatrixFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

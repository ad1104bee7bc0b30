"""Textual syntax for polynomials.

Grammar (whitespace insignificant, ASCII only):

    poly   := ['-'] term (('+' | '-') term)*
    term   := coeff ['*' varpow ('*' varpow)*]
            | varpow ('*' varpow)*
    varpow := 'X' index ['^' exponent]

coeff, index and exponent are decimal integers; '*' is optional between a
coefficient and a variable and between variables, so 2X4^2X6^2 and
2*X4^2*X6^2 read the same. Coefficients are reduced mod p on parse.

Reading takes two steps. One compiled regular expression scans the whole
text into (kind, value, line, col) tokens before the grammar is applied, so
an unexpected character is reported even where the grammar would fail
earlier (X1++Y fails at Y). One loop then reads the grammar from the tokens
and adds exponent * ring.variable_word(i) per factor to its term's n*w-bit word.
A ParseError's line counts newlines and its col counts code points since
the last one. Digits are ASCII 0-9 and whitespace is space, tab, carriage
return and newline: Python's \\d and \\s would also accept the digits and
spaces of other scripts. The file formats follow the same rule: numbers in
a matrix file and in a basis-file header are ASCII decimal digits, lines
end at a newline only, and fields are separated by spaces or tabs.

print_poly emits the canonical form: terms strictly descending under the
polynomial's order, coefficients in [1, p), a coefficient of 1 elided,
'^1' elided, variables juxtaposed, and terms joined by '+'. The zero
polynomial prints as "0". A polynomial of at most 8n terms is printed term
by term, with one decode of the word and one join per term over the
variables that occur in some term; one decode of the OR of the words names
those variables, and only they get a text table, so printing 2X2 in a ring
of 65 536 variables builds one. A larger one splits the variables into at
most three groups of ceil(n/3). Each group's text is memoized by the word's
bits in the group's fields, so a decode happens once per distinct group
text, and C-level map, zip and join assemble the terms. Cost model: the
memo pays a fixed set-up, one decode per distinct group text (at least one
per group, at most one per group and term), and per term four dict lookups
(the coefficient's text and three groups) and one join, a fraction of a
decode. On closed forms, whose
exponents form a grid, it breaks even with the per-term loop near 8n
terms; the 6 048-term closed form of a p=7, n=9 code takes 123 decodes.
Where group texts rarely repeat, as in a large random polynomial, it pays
up to three decodes per term.

content_lines is the line reader both file formats share (the generator
matrix and the nf basis file): '#' starts a comment, blank lines are
skipped, and each line keeps its file line and column, so that errors name
a position in the file. Lines lose only surrounding spaces, tabs and
carriage returns, so '\\r\\n' files read as '\\n' files. The CLI hands it
a file's text untranslated, so it alone decides where a file's lines end.
"""

from __future__ import annotations

import re
import sys
from itertools import compress
from operator import getitem

from .monomials import ONE
from .poly import Polynomial, Ring, support


class ParseError(ValueError):
    """Syntax or range error in polynomial text, with 1-based position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line} col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# One alternative per token; whitespace other than a newline matches no named
# group, and any other character falls to 'bad'. [0-9] and [ \t\r], not \d
# and \s, which also match non-ASCII digits and spaces.
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|X(?P<var>[0-9]*)|(?P<op>[-+*^])|(?P<newline>\n)|[ \t\r]+|(?P<bad>.)",
    re.DOTALL,
)


def _scan(text: str) -> list[tuple]:
    """(kind, value, line, col) tokens of the whole text, closed by an 'end' token.

    kind is 'int' or 'var' with an int value, or an operator, which is its
    own value. Integers convert in scan order, so a bad character is
    reported only if every integer before it converts; an integer too long
    to convert is reported at its first digit.
    """
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind == "op":
            tokens.append((m.group(), m.group(), line, col))
        elif kind:
            digits = m.group(kind)
            if not digits:
                raise ParseError("'X' must be followed by a variable index", line, col)
            try:
                tokens.append((kind, int(digits), line, col))
            except ValueError:  # more digits than int() converts
                col = m.start(kind) - line_start + 1
                raise ParseError(too_many_digits(digits), line, col) from None
    tokens.append(("end", None, line, len(text) - line_start + 1))
    return tokens


def too_many_digits(digits: str) -> str:
    """The error for more digits than int() converts; the caller adds the position."""
    return f"a number of {len(digits)} digits exceeds the limit of {sys.get_int_max_str_digits()}"


def content_lines(text: str) -> list[tuple[int, int, str]]:
    """The non-blank lines of a file as (line, col, text), '#' comments removed.

    text is the line stripped of spaces, tabs and carriage returns; it
    starts at column col of file line line, both 1-based, with lines ending
    at '\\n' only.
    """
    lines = []
    for number, raw in enumerate(text.split("\n"), start=1):
        kept = raw.split("#", 1)[0]
        stripped = kept.strip(" \t\r")
        if stripped:
            lines.append((number, len(kept) - len(kept.lstrip(" \t\r")) + 1, stripped))
    return lines


def parse_poly(text: str, ring: Ring) -> Polynomial:
    """Parse polynomial text into a normalized polynomial of the ring."""
    if not text.strip(" \t\r\n"):
        raise ParseError("empty polynomial text", 1, 1)
    tokens = _scan(text)
    x_word, bound, guards, p = ring.variable_word, ring.bound, ring.guards, ring.p
    acc: dict[int, int] = {}  # word -> coefficient
    i, sign = (1, -1) if tokens[0][0] == "-" else (0, 1)
    while True:
        kind, coeff, line, col = tokens[i]
        if kind == "int":
            i += 1
        elif kind == "var":
            coeff = 1
        else:
            raise ParseError("expected a coefficient or a variable", line, col)
        word = ONE
        while True:
            kind, index, line, col = tokens[i]
            if kind == "*":
                i += 1
                kind, index, line, col = tokens[i]
                if kind != "var":
                    raise ParseError("expected a variable after '*'", line, col)
            elif kind != "var":
                break
            if not 1 <= index <= ring.n:
                raise ParseError(f"variable index {index} out of range [1, {ring.n}]", line, col)
            i += 1
            exponent = 1
            if tokens[i][0] == "^":
                kind, exponent, line, col = tokens[i + 1]
                if kind != "int":
                    raise ParseError("expected a non-negative integer exponent after '^'", line, col)
                i += 2
            # two exponents at most the bound cannot carry out of the field; they set its guard bit
            if exponent > bound or (word := word + exponent * x_word(index)) & guards:
                message = f"exponent of X{index} exceeds {bound}, the largest exponent of this ring"
                raise ParseError(message, line, col)
        acc[word] = (acc.get(word, 0) + sign * coeff) % p
        kind, value, line, col = tokens[i]
        if kind == "end":
            return ring._from_dict({m: c for m, c in acc.items() if c})
        if kind not in ("+", "-"):
            raise ParseError(f"expected '+', '-' or end of input, got {value!r}", line, col)
        i, sign = i + 1, 1 if kind == "+" else -1


class _Powers(dict):
    """The text of X_i^e by exponent e: '' for 0, 'X_i' for 1; built on first use."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = "" if not e else self.name if e == 1 else f"{self.name}^{e}"
        return text


_GROUPS = 3  # print_poly's memo groups of variables at most; their number does not grow with n


class _Group(dict):
    """The text of the variables X_(lo+1) .. X_hi by a word's bits under mask, their fields.

    A miss decodes the bits, so each distinct text of the group is built once.
    """

    def __init__(self, ring: Ring, powers: list[_Powers], lo: int, hi: int):
        super().__init__()
        self.mask = ring.field_mask(lo, hi)
        self.exponents = ring.exponents
        self.powers = powers[lo:hi]
        self.run = slice(lo, hi)

    def __missing__(self, bits: int) -> str:
        text = self[bits] = "".join(map(getitem, self.powers, self.exponents(bits)[self.run]))
        return text


def print_poly(f: Polynomial) -> str:
    """Canonical text form; parse_poly(print_poly(f)) == f."""
    if f.is_zero:
        return "0"
    terms = f.terms
    n = f.ring.n
    if len(terms) <= 8 * n:
        exponents = f.ring.exponents
        occurs = exponents(support(terms))
        powers = [_Powers(f"X{i}") for i in compress(range(1, n + 1), occurs)]
        parts = []
        for coeff, word in terms:
            vars_part = "".join(map(getitem, powers, compress(exponents(word), occurs)))
            if not vars_part:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(vars_part)
            else:
                parts.append(f"{coeff}{vars_part}")
        return "+".join(parts)
    # the monomial 1 sorts first (negdeglex) or last, and prints as its coefficient
    first = last = ""
    if terms[0][1] == ONE:
        first, terms = f"{terms[0][0]}+", terms[1:]
    elif terms[-1][1] == ONE:
        terms, last = terms[:-1], f"+{terms[-1][0]}"
    coeffs, words = zip(*terms)
    powers = [_Powers(f"X{i}") for i in range(1, n + 1)]  # n < len(terms) / 8 here
    coefficient_text = {c: str(c) for c in set(coeffs)} | {1: ""}
    columns = [map(coefficient_text.__getitem__, coeffs)]
    size = -(-n // _GROUPS)
    for lo in range(0, n, size):
        group = _Group(f.ring, powers, lo, min(lo + size, n))
        columns.append(map(group.__getitem__, map(group.mask.__and__, words)))
    return first + "+".join(map("".join, zip(*columns))) + last

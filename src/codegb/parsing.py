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
earlier (X1++Y fails at Y). One loop then reads the grammar from the tokens.
A ParseError's line counts newlines and its col counts code points since
the last one. Digits are ASCII 0-9 and whitespace is space, tab, carriage
return and newline: Python's \\d and \\s would also accept the digits and
spaces of other scripts. The file formats follow the same rule: numbers in
a matrix file and in a basis-file header are ASCII decimal digits, lines
end at a newline only, and fields are separated by spaces or tabs.

print_poly emits the canonical form: terms strictly descending under the
polynomial's order, coefficients in [1, p), a coefficient of 1 elided,
'^1' elided, variables juxtaposed, and terms joined by '+'. The zero
polynomial prints as "0".

content_lines is the line reader both file formats share (the generator
matrix and the nf basis file): '#' starts a comment, blank lines are
skipped, and each line keeps its file line and column, so that errors name
a position in the file. Lines lose only surrounding spaces, tabs and
carriage returns, so '\\r\\n' files read as '\\n' files. The CLI hands it
a file's text untranslated, so it alone decides where a file's lines end.
"""

from __future__ import annotations

import re
from operator import getitem

from .poly import Polynomial, Ring


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
    reported only if every integer before it converts.
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
            if not m.group(kind):
                raise ParseError("'X' must be followed by a variable index", line, col)
            tokens.append((kind, int(m.group(kind)), line, col))
    tokens.append(("end", None, line, len(text) - line_start + 1))
    return tokens


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
    terms = []
    i, sign = (1, -1) if tokens[0][0] == "-" else (0, 1)
    while True:
        kind, coeff, line, col = tokens[i]
        if kind == "int":
            i += 1
        elif kind == "var":
            coeff = 1
        else:
            raise ParseError("expected a coefficient or a variable", line, col)
        mono = [0] * ring.n
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
            mono[index - 1] += exponent
        terms.append((sign * coeff, tuple(mono)))
        kind, value, line, col = tokens[i]
        if kind == "end":
            return ring.poly(terms)
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


def print_poly(f: Polynomial) -> str:
    """Canonical text form; parse_poly(print_poly(f)) == f."""
    if f.is_zero:
        return "0"
    parts = []
    exponents = f.ring.exponents
    powers = [_Powers(f"X{i}") for i in range(1, f.ring.n + 1)]
    for coeff, word in f.terms:
        vars_part = "".join(map(getitem, powers, exponents(word)))
        if not vars_part:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(vars_part)
        else:
            parts.append(f"{coeff}{vars_part}")
    return "+".join(parts)

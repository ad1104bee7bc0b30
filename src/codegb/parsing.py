"""Textual syntax for polynomials.

Grammar (whitespace insignificant, ASCII only):

    poly   := ['-'] term (('+' | '-') term)*
    term   := coeff ['*' varpow ('*' varpow)*]
            | varpow ('*' varpow)*
    varpow := 'X' index ['^' exponent]

coeff, index and exponent are decimal integers; '*' is optional between a
coefficient and a variable and between variables, so 2X4^2X6^2 and
2*X4^2*X6^2 read the same. Coefficients are reduced mod p on parse.

print_poly emits the canonical form: terms strictly descending under the
polynomial's order, coefficients in [1, p), a coefficient of 1 elided,
'^1' elided, variables juxtaposed, and terms joined by '+'. The zero
polynomial prints as "0".

content_lines is the line reader both file formats share (the generator
matrix and the nf basis file): '#' starts a comment, blank lines are
skipped.
"""

from __future__ import annotations

from operator import getitem

from .poly import Polynomial, Ring


class ParseError(ValueError):
    """Syntax or range error in polynomial text, with 1-based position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line} col {col}: {message}")
        self.line = line
        self.col = col


_INT = "int"
_VAR = "var"
_OP = "op"
_EOF = "eof"


def _is_ascii_digit(ch: str) -> bool:
    # str.isdigit accepts Unicode digits that int() rejects; ASCII only here
    return "0" <= ch <= "9"


def _tokenize(text: str):
    """Yield (kind, value, line, col) tokens; kinds: int, var, op, eof."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in "+-*^":
            tokens.append((_OP, ch, line, col))
            i += 1
            col += 1
            continue
        if _is_ascii_digit(ch):
            j = i
            while j < len(text) and _is_ascii_digit(text[j]):
                j += 1
            tokens.append((_INT, int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch == "X":
            j = i + 1
            while j < len(text) and _is_ascii_digit(text[j]):
                j += 1
            if j == i + 1:
                raise ParseError("'X' must be followed by a variable index", line, col)
            tokens.append((_VAR, int(text[i + 1 : j]), line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append((_EOF, None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: Ring):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        _, _, line, col = self.peek()
        raise ParseError(message, line, col)

    def parse(self) -> Polynomial:
        terms = []
        sign = 1
        if self.peek()[:2] == (_OP, "-"):
            self.advance()
            sign = -1
        terms.append(self.term(sign))
        while True:
            kind, value, _, _ = self.peek()
            if kind == _EOF:
                break
            if kind == _OP and value in "+-":
                self.advance()
                terms.append(self.term(1 if value == "+" else -1))
            else:
                self.fail(f"expected '+', '-' or end of input, got {value!r}")
        return self.ring.poly(terms)

    def term(self, sign: int):
        kind, value, _, _ = self.peek()
        if kind == _INT:
            self.advance()
            coeff = value
        elif kind == _VAR:
            coeff = 1
        else:
            self.fail("expected a coefficient or a variable")
        mono = [0] * self.ring.n
        while True:
            kind, value, _, _ = self.peek()
            if kind == _OP and value == "*":
                self.advance()
                if self.peek()[0] != _VAR:
                    self.fail("expected a variable after '*'")
                self.varpow(mono)
            elif kind == _VAR:
                self.varpow(mono)
            else:
                break
        return (sign * coeff, tuple(mono))

    def varpow(self, mono):
        kind, index, line, col = self.advance()
        if not 1 <= index <= self.ring.n:
            raise ParseError(f"variable index {index} out of range [1, {self.ring.n}]", line, col)
        exponent = 1
        if self.peek()[:2] == (_OP, "^"):
            self.advance()
            kind, value, _, _ = self.peek()
            if kind != _INT:
                self.fail("expected a non-negative integer exponent after '^'")
            self.advance()
            exponent = value
        mono[index - 1] += exponent


def content_lines(text: str) -> list[str]:
    """The stripped non-blank lines of a file, with '#' comments removed."""
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    return lines


def parse_poly(text: str, ring: Ring) -> Polynomial:
    """Parse polynomial text into a normalized polynomial of the ring."""
    if not text.strip():
        raise ParseError("empty polynomial text", 1, 1)
    return _Parser(text, ring).parse()


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

"""Polynomial text syntax: parsing, canonical printing, round trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codegb.monomials import Order
from codegb.parsing import ParseError, parse_poly, print_poly
from codegb.poly import Ring

from helpers import G2, random_poly


@pytest.fixture
def ring():
    return Ring(3, 6, Order.NEGDEGLEX)


def test_parse_prefix_of_known_polynomial(ring):
    f = parse_poly("X1+X4+X6+2X4^2", ring)
    assert len(f.terms) == 4
    assert f.leading_monomial == ring.variable(1).leading_monomial
    assert ring.exponents(f.leading_monomial) == (1, 0, 0, 0, 0, 0)


def test_parse_zero(ring):
    assert parse_poly("0", ring).is_zero
    assert parse_poly("3", ring).is_zero  # coefficient reduced mod p
    assert parse_poly("X1+2X1", ring).is_zero


def test_parse_index_out_of_range(ring):
    with pytest.raises(ParseError, match="out of range"):
        parse_poly("X7", ring)
    with pytest.raises(ParseError, match="out of range"):
        parse_poly("X0", ring)


def test_star_and_juxtaposition_agree(ring):
    assert parse_poly("2*X4^2*X6^2", ring) == parse_poly("2X4^2X6^2", ring)
    assert parse_poly("X4 X6", ring) == parse_poly("X4X6", ring)
    assert parse_poly(" X4\n+ X6 ", ring) == parse_poly("X4+X6", ring)


def test_signs(ring):
    assert parse_poly("-X1", ring) == parse_poly("2X1", ring)
    assert parse_poly("X1-X1^2", ring) == parse_poly("X1+2X1^2", ring)
    assert parse_poly("-2", ring) == parse_poly("1", ring)


def test_repeated_variable_accumulates(ring):
    assert parse_poly("X4X4", ring) == parse_poly("X4^2", ring)
    assert parse_poly("X4^0", ring) == parse_poly("1", ring)


# Every parse error, pinned: (text, exception type, message, line, col),
# parsed in a ring with n = 2. The whole text is scanned before the grammar
# runs, so a bad character wins over an earlier grammar error (X1++Y), and
# integers convert in scan order, so Python's 4300-digit limit on int() wins
# over a later bad character. Columns count code points; tabs and carriage
# returns count one.
_DIGIT_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"
PARSE_ERRORS = [
    ("", ParseError, "empty polynomial text", 1, 1),
    ("   ", ParseError, "empty polynomial text", 1, 1),
    (" \t\r\n", ParseError, "empty polynomial text", 1, 1),
    # blank means ASCII whitespace only; other spaces are unexpected characters
    ("\f", ParseError, "unexpected character '\\x0c'", 1, 1),
    ("\xa0", ParseError, "unexpected character '\\xa0'", 1, 1),
    (" \u2028 ", ParseError, "unexpected character '\\u2028'", 1, 2),
    ("X", ParseError, "'X' must be followed by a variable index", 1, 1),
    ("X+X1", ParseError, "'X' must be followed by a variable index", 1, 1),
    ("2X", ParseError, "'X' must be followed by a variable index", 1, 2),
    ("XX1", ParseError, "'X' must be followed by a variable index", 1, 1),
    ("X\u2081", ParseError, "'X' must be followed by a variable index", 1, 1),
    ("2*", ParseError, "expected a variable after '*'", 1, 3),
    ("X1*", ParseError, "expected a variable after '*'", 1, 4),
    ("2**X1", ParseError, "expected a variable after '*'", 1, 3),
    ("X1*2", ParseError, "expected a variable after '*'", 1, 4),
    ("X1^", ParseError, "expected a non-negative integer exponent after '^'", 1, 4),
    ("X1^-1", ParseError, "expected a non-negative integer exponent after '^'", 1, 4),
    ("X1^^2", ParseError, "expected a non-negative integer exponent after '^'", 1, 4),
    ("X1^X2", ParseError, "expected a non-negative integer exponent after '^'", 1, 4),
    ("X1 ^ ", ParseError, "expected a non-negative integer exponent after '^'", 1, 6),
    ("*X1", ParseError, "expected a coefficient or a variable", 1, 1),
    ("+X1", ParseError, "expected a coefficient or a variable", 1, 1),
    ("-", ParseError, "expected a coefficient or a variable", 1, 2),
    ("X1-", ParseError, "expected a coefficient or a variable", 1, 4),
    ("X1+", ParseError, "expected a coefficient or a variable", 1, 4),
    ("--X1", ParseError, "expected a coefficient or a variable", 1, 2),
    ("^2", ParseError, "expected a coefficient or a variable", 1, 1),
    ("X1++X2", ParseError, "expected a coefficient or a variable", 1, 4),
    ("X1+X2\n+", ParseError, "expected a coefficient or a variable", 2, 2),
    ("X1 + \t\t- X3", ParseError, "expected a coefficient or a variable", 1, 8),
    ("X1++Y", ParseError, "unexpected character 'Y'", 1, 5),
    ("X1 2 Y", ParseError, "unexpected character 'Y'", 1, 6),
    ("X1 +\tY", ParseError, "unexpected character 'Y'", 1, 6),
    ("Y1", ParseError, "unexpected character 'Y'", 1, 1),
    ("(X1)", ParseError, "unexpected character '('", 1, 1),
    ("x1", ParseError, "unexpected character 'x'", 1, 1),
    ("X1,X2", ParseError, "unexpected character ','", 1, 3),
    ("X1#1", ParseError, "unexpected character '#'", 1, 3),
    ("X1\u00b2", ParseError, "unexpected character '\u00b2'", 1, 3),
    ("\u0663X1", ParseError, "unexpected character '\u0663'", 1, 1),
    ("X1\xa0+X2", ParseError, "unexpected character '\\xa0'", 1, 3),
    ("\fX1", ParseError, "unexpected character '\\x0c'", 1, 1),
    ("2 3", ParseError, "expected '+', '-' or end of input, got 3", 1, 3),
    ("2^3", ParseError, "expected '+', '-' or end of input, got '^'", 1, 2),
    ("X1^2^3", ParseError, "expected '+', '-' or end of input, got '^'", 1, 5),
    ("X1 X2 3", ParseError, "expected '+', '-' or end of input, got 3", 1, 7),
    ("1 X1^2\n2", ParseError, "expected '+', '-' or end of input, got 2", 2, 1),
    ("2\r\n3", ParseError, "expected '+', '-' or end of input, got 3", 2, 1),
    ("X3", ParseError, "variable index 3 out of range [1, 2]", 1, 1),
    ("X0", ParseError, "variable index 0 out of range [1, 2]", 1, 1),
    ("X00", ParseError, "variable index 0 out of range [1, 2]", 1, 1),
    ("0X3", ParseError, "variable index 3 out of range [1, 2]", 1, 2),
    ("X2^3X9", ParseError, "variable index 9 out of range [1, 2]", 1, 5),
    ("X1\n\n+X9", ParseError, "variable index 9 out of range [1, 2]", 3, 2),
    ("X1+\r\n\tX3", ParseError, "variable index 3 out of range [1, 2]", 2, 2),
    ("X1 +\t\tX3", ParseError, "variable index 3 out of range [1, 2]", 1, 7),
    ("1" * 5000, ValueError, _DIGIT_LIMIT, None, None),
    ("X1^" + "1" * 5000 + "+Y", ValueError, _DIGIT_LIMIT, None, None),
    ("X" + "1" * 5000, ValueError, _DIGIT_LIMIT, None, None),
]


def _case_id(text):
    return text if len(text) <= 40 else f"{text[:4]}...{len(text)}-chars"


@pytest.mark.parametrize(
    "text, kind, message, line, col",
    [pytest.param(*case, id=_case_id(case[0])) for case in PARSE_ERRORS],
)
def test_parse_errors(text, kind, message, line, col):
    with pytest.raises(ValueError) as err:
        parse_poly(text, Ring(3, 2, Order.NEGDEGLEX))
    assert type(err.value) is kind
    if kind is ParseError:
        assert (str(err.value), err.value.line, err.value.col) == (
            f"line {line} col {col}: {message}", line, col
        )
    else:
        assert str(err.value).startswith(message)


@st.composite
def spelled_twice(draw):
    """One polynomial as tokens, then its text bare and with optional separators.

    The bare text juxtaposes every token. The other inserts spaces, tabs or
    newlines between tokens, and '*' between a coefficient and a variable
    or between two variables.
    """
    tokens = []  # (token, may_be_preceded_by_star)
    if draw(st.booleans()):
        tokens.append(("-", False))
    for i in range(draw(st.integers(1, 4))):
        if i:
            tokens.append((draw(st.sampled_from("+-")), False))
        varpows = draw(st.lists(st.tuples(st.integers(1, 3), st.none() | st.integers(0, 12)), max_size=3))
        if not varpows or draw(st.booleans()):
            tokens.append((str(draw(st.integers(0, 40))), False))
        for j, (index, exponent) in enumerate(varpows):
            tokens.append((f"X{index}", j > 0 or bool(tokens) and tokens[-1][0].isdigit()))
            if exponent is not None:
                tokens += [("^", False), (str(exponent), False)]
    bare = "".join(token for token, _ in tokens)
    spaced = []
    for token, star in tokens:
        if spaced:
            spaced.append(draw(st.text(" \t\n", max_size=2)))
        if star and draw(st.booleans()):
            spaced += ["*", draw(st.text(" \t\n", max_size=2))]
        spaced.append(token)
    return bare, "".join(spaced)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spelled_twice())
def test_separators_and_stars_do_not_change_the_polynomial(texts):
    ring = Ring(5, 3, Order.DEGLEX)
    bare, spaced = texts
    assert parse_poly(spaced, ring) == parse_poly(bare, ring)


def test_unicode_subscripts_rejected(ring):
    with pytest.raises(ParseError):
        parse_poly("X₁", ring)  # ASCII only
    with pytest.raises(ParseError):
        parse_poly("X1²", ring)


def test_parse_error_position():
    ring = Ring(3, 6, Order.NEGDEGLEX)
    with pytest.raises(ParseError) as err:
        parse_poly("X1+\nX7", ring)
    assert err.value.line == 2
    assert err.value.col == 1


def test_print_golden_line(ring):
    assert print_poly(parse_poly(G2, ring)) == G2


def test_print_rules(ring):
    assert print_poly(ring.zero()) == "0"
    assert print_poly(ring.one()) == "1"
    assert print_poly(ring.term(2, (0, 0, 0, 1, 0, 0))) == "2X4"
    assert print_poly(ring.term(1, (0, 0, 0, 2, 0, 1))) == "X4^2X6"
    lex = Ring(3, 6, Order.LEX)
    assert print_poly(parse_poly("X4^3-1", lex)) == "X4^3+2"


def test_round_trip_random():
    rng = random.Random(161803)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 6)
        order = rng.choice(list(Order))
        ring = Ring(p, n, order)
        f = random_poly(ring, rng, max_terms=6, max_deg=6)
        assert parse_poly(print_poly(f), ring) == f


def test_print_is_injective_spot_check():
    rng = random.Random(55)
    ring = Ring(5, 3, Order.DEGLEX)
    seen = {}
    for _ in range(300):
        f = random_poly(ring, rng, max_terms=5, max_deg=4)
        text = print_poly(f)
        if text in seen:
            assert seen[text] == f
        seen[text] = f

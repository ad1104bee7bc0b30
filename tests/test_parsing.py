"""Polynomial text syntax: parsing, canonical printing, round trips."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codegb import monomials, parsing
from codegb.codes import closed_form_basis, parse_matrix
from codegb.monomials import Order
from codegb.parsing import ParseError, parse_poly, print_poly
from codegb.poly import Ring

from helpers import G2, random_poly, ref_print_poly


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
    assert parse_poly("X4^16384X4^16383", ring) == ring.term(1, (0, 0, 0, 32767, 0, 0))


# Every parse error, pinned: (text, message, line, col), parsed in a ring
# with n = 2. The whole text is scanned before the grammar runs, so a bad
# character wins over an earlier grammar error (X1++Y), and integers convert
# in scan order, so an integer longer than Python's 4300-digit limit on int()
# wins over a later bad character; it is reported at its first digit.
# Columns count code points; tabs and carriage returns count one.
_TOO_LONG = "a number of {} digits exceeds the limit of 4300"
_ABOVE_BOUND = "exponent of X{} exceeds 32767, the largest exponent of this ring"
PARSE_ERRORS = [
    ("", "empty polynomial text", 1, 1),
    ("   ", "empty polynomial text", 1, 1),
    (" \t\r\n", "empty polynomial text", 1, 1),
    # blank means ASCII whitespace only; other spaces are unexpected characters
    ("\f", "unexpected character '\\x0c'", 1, 1),
    ("\xa0", "unexpected character '\\xa0'", 1, 1),
    (" \u2028 ", "unexpected character '\\u2028'", 1, 2),
    ("X", "'X' must be followed by a variable index", 1, 1),
    ("X+X1", "'X' must be followed by a variable index", 1, 1),
    ("2X", "'X' must be followed by a variable index", 1, 2),
    ("XX1", "'X' must be followed by a variable index", 1, 1),
    ("X\u2081", "'X' must be followed by a variable index", 1, 1),
    ("2*", "expected a variable after '*'", 1, 3),
    ("X1*", "expected a variable after '*'", 1, 4),
    ("2**X1", "expected a variable after '*'", 1, 3),
    ("X1*2", "expected a variable after '*'", 1, 4),
    ("X1^", "expected a non-negative integer exponent after '^'", 1, 4),
    ("X1^-1", "expected a non-negative integer exponent after '^'", 1, 4),
    ("X1^^2", "expected a non-negative integer exponent after '^'", 1, 4),
    ("X1^X2", "expected a non-negative integer exponent after '^'", 1, 4),
    ("X1 ^ ", "expected a non-negative integer exponent after '^'", 1, 6),
    ("*X1", "expected a coefficient or a variable", 1, 1),
    ("+X1", "expected a coefficient or a variable", 1, 1),
    ("-", "expected a coefficient or a variable", 1, 2),
    ("X1-", "expected a coefficient or a variable", 1, 4),
    ("X1+", "expected a coefficient or a variable", 1, 4),
    ("--X1", "expected a coefficient or a variable", 1, 2),
    ("^2", "expected a coefficient or a variable", 1, 1),
    ("X1++X2", "expected a coefficient or a variable", 1, 4),
    ("X1+X2\n+", "expected a coefficient or a variable", 2, 2),
    ("X1 + \t\t- X3", "expected a coefficient or a variable", 1, 8),
    ("X1++Y", "unexpected character 'Y'", 1, 5),
    ("X1 2 Y", "unexpected character 'Y'", 1, 6),
    ("X1 +\tY", "unexpected character 'Y'", 1, 6),
    ("Y1", "unexpected character 'Y'", 1, 1),
    ("(X1)", "unexpected character '('", 1, 1),
    ("x1", "unexpected character 'x'", 1, 1),
    ("X1,X2", "unexpected character ','", 1, 3),
    ("X1#1", "unexpected character '#'", 1, 3),
    ("X1\u00b2", "unexpected character '\u00b2'", 1, 3),
    ("\u0663X1", "unexpected character '\u0663'", 1, 1),
    ("X1\xa0+X2", "unexpected character '\\xa0'", 1, 3),
    ("\fX1", "unexpected character '\\x0c'", 1, 1),
    ("2 3", "expected '+', '-' or end of input, got 3", 1, 3),
    ("2^3", "expected '+', '-' or end of input, got '^'", 1, 2),
    ("X1^2^3", "expected '+', '-' or end of input, got '^'", 1, 5),
    ("X1 X2 3", "expected '+', '-' or end of input, got 3", 1, 7),
    ("1 X1^2\n2", "expected '+', '-' or end of input, got 2", 2, 1),
    ("2\r\n3", "expected '+', '-' or end of input, got 3", 2, 1),
    ("X3", "variable index 3 out of range [1, 2]", 1, 1),
    ("X0", "variable index 0 out of range [1, 2]", 1, 1),
    ("X00", "variable index 0 out of range [1, 2]", 1, 1),
    ("0X3", "variable index 3 out of range [1, 2]", 1, 2),
    ("X2^3X9", "variable index 9 out of range [1, 2]", 1, 5),
    ("X1\n\n+X9", "variable index 9 out of range [1, 2]", 3, 2),
    ("X1+\r\n\tX3", "variable index 3 out of range [1, 2]", 2, 2),
    ("X1 +\t\tX3", "variable index 3 out of range [1, 2]", 1, 7),
    ("1" * 5000, _TOO_LONG.format(5000), 1, 1),
    ("X1^" + "1" * 5000 + "+Y", _TOO_LONG.format(5000), 1, 4),
    ("X" + "1" * 5000, _TOO_LONG.format(5000), 1, 2),
    # an exponent above the ring's bound is refused where it crosses the bound, not echoed
    ("X1^32768", _ABOVE_BOUND.format(1), 1, 4),
    ("X2 + 2X1X2^" + "9" * 4000, _ABOVE_BOUND.format(2), 1, 12),
    ("X1^32767X2X1^0\n  X1", _ABOVE_BOUND.format(1), 2, 3),
    ("X1^16384 X2 X1^16384", _ABOVE_BOUND.format(1), 1, 16),
]


def _case_id(text):
    return text if len(text) <= 40 else f"{text[:4]}...{len(text)}-chars"


@pytest.mark.parametrize(
    "text, message, line, col",
    [pytest.param(*case, id=_case_id(case[0])) for case in PARSE_ERRORS],
)
def test_parse_errors(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_poly(text, Ring(3, 2, Order.NEGDEGLEX))
    assert type(err.value) is ParseError
    assert (str(err.value), err.value.line, err.value.col) == (
        f"line {line} col {col}: {message}", line, col
    )


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


@pytest.mark.parametrize("order", list(Order), ids=lambda order: order.value)
@pytest.mark.parametrize("p", [3, 16411, 2147483647])  # 16-, 32- and 64-bit fields
def test_a_repeated_variable_is_refused_where_its_field_would_pass_the_bound(order, p):
    # the top, a middle and the bottom field of either layout, next to the degree or not
    ring = Ring(p, 3, order)
    bound = ring.bound
    half = bound // 2 + 1
    for index in (1, 2, 3):
        x = f"X{index}"
        unit = tuple(int(j == index - 1) for j in range(3))
        at_bound = tuple(bound * e for e in unit)
        accepted = [
            (f"{x}^{half}{x}^{bound - half}", ring.term(1, at_bound)),
            (f"{x}^{bound}{x}^0+{x}", ring.poly([(1, at_bound), (1, unit)])),
            (f"2{x}^{bound - 1}*{x}", ring.term(2, at_bound)),
        ]
        for text, expected in accepted:
            assert parse_poly(text, ring) == expected, text
        refused = [
            (f"{x}^{half}{x}^{bound + 1 - half}", f"{x}^{bound + 1 - half}", 3),  # one past the bound
            (f"X1X2X3+{x}^{bound}{x}", f"{x}", 0),  # no '^': at the variable itself
            (f"{x}^{bound}\n {x}^{bound}", f"{x}^{bound}", 3),  # twice the bound
            (f"{x}^{bound}*{x}^1+X1", f"{x}^1", 3),
            (f"{x}^{bound + 1}", f"{x}^{bound + 1}", 3),  # one exponent above the bound
            (f"{x}^{bound}{x}^{10 ** 40}", f"{x}^{10 ** 40}", 3),
        ]
        for text, tail, offset in refused:
            start = text.rindex(tail) + offset  # 0-based: the exponent, or X when there is no '^'
            line = text.count("\n", 0, start) + 1
            col = start - (text.rfind("\n", 0, start) + 1) + 1
            with pytest.raises(ParseError) as err:
                parse_poly(text, ring)
            message = f"exponent of X{index} exceeds {bound}, the largest exponent of this ring"
            assert (err.value.message, err.value.line, err.value.col) == (message, line, col), text


def test_parsing_builds_no_exponent_tuple_per_term():
    # 401 terms in 65 536 variables: a list and a tuple of n exponents per term took about 200 MiB
    ring = Ring(3, 65536, Order.NEGDEGLEX)
    text = "+".join(["X65536"] * 401)
    tracemalloc.start()
    try:
        f = parse_poly(text, ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f == ring.constant(401) * ring.variable(65536)
    assert peak < 8 * 2**20


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


def _spread_poly(ring: Ring, rng, count: int, constant: bool):
    """A polynomial of count terms, the monomial 1 among them iff constant.

    Exponents are mostly 0, 1 and the ring's bound, so that large
    polynomials repeat the texts of print_poly's groups of variables;
    coefficients are mostly 1 and p - 1.
    """
    p, n = ring.p, ring.n
    terms = {(0,) * n: rng.choice((1, p - 1))} if constant else {}
    while len(terms) < count:
        mono = tuple(
            rng.choice((0, 1, ring.bound)) if rng.random() < 0.8 else rng.randint(2, 40)
            for _ in range(n)
        )
        if any(mono):
            terms[mono] = rng.choice((1, p - 1, rng.randrange(1, p)))
    return ring.poly((c, mono) for mono, c in terms.items())


@pytest.mark.parametrize("order", list(Order), ids=lambda order: order.value)
@pytest.mark.parametrize("p", [3, 16411, 2147483647])  # 16-, 32- and 64-bit fields
def test_print_matches_the_reference_printer(order, p):
    rng = random.Random(p)
    for n in (1, 2, 3, 8, 9, 10, 17):
        ring = Ring(p, n, order)
        # print_poly runs its per-term loop up to 8n terms and its group memo above
        for count in (1, 4 * n, 8 * n, 8 * n + 1, 16 * n):
            for constant in (False, True):
                f = _spread_poly(ring, rng, count, constant)
                assert len(f.terms) == count
                text = print_poly(f)
                assert text == ref_print_poly(f)
                assert parse_poly(text, ring) == f
                if constant:
                    assert f.terms[0 if order.is_local else -1][1] == monomials.ONE


def test_large_print_decodes_each_group_text_once(monkeypatch):
    # the largest closed form of a p=7, k=2, n=9 code: 6 048 terms in 9 variables
    G = parse_matrix("p=7\nk=2 n=9\n1 0 6 0 1 0 4 3 4\n0 1 6 2 6 1 5 4 5\n")
    f = max(closed_form_basis(G), key=lambda f: len(f.terms))
    assert len(f.terms) == 6048
    decode = monomials.Encoding.exponents
    calls = 0

    def counted(self, word):
        nonlocal calls
        calls += 1
        return decode(self, word)

    monkeypatch.setattr(monomials.Encoding, "exponents", counted)
    text = print_poly(f)
    assert calls == 123  # one decode per distinct group text, not one per term
    monkeypatch.undo()
    assert text == ref_print_poly(f)


def test_small_print_builds_text_only_for_the_variables_that_occur(monkeypatch):
    built = []

    class Counted(parsing._Powers):
        def __init__(self, name):
            built.append(name)
            super().__init__(name)

    monkeypatch.setattr(parsing, "_Powers", Counted)
    # the ring's largest variable count: one variable occurs, so one text table is built
    assert print_poly(parse_poly("2X2", Ring(3, 65536, Order.NEGDEGLEX))) == "2X2"
    assert built == ["X2"]
    built.clear()
    ring = Ring(5, 9, Order.DEGREVLEX)
    f = parse_poly("X9^3X1+4X4^2+X1^2X4+3", ring)
    assert print_poly(f) == ref_print_poly(f)
    assert built == ["X1", "X4", "X9"]

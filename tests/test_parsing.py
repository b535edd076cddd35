"""Parsing and formatting: expressions, automorphism files, error positions."""

import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tame3 import forms, poly
from tame3.errors import (
    DegreeOverflow,
    DependentInputs,
    ParseError,
    Tame3Error,
    UnknownVariable,
    WitnessMismatch,
)
from tame3.parsing import (
    COMPONENT_VARIABLES,
    MAX_NESTING,
    PHI_VARIABLES,
    Token,
    _tokenize,
    format_automorphism,
    format_poly,
    parse_automorphism,
    parse_poly,
)
from tame3.vertices import Automorphism

from fixtures import NAGATA_SOURCE, QUINTIC, SOURCE_TEXT, P
from oracles import parse_poly_generic, tokenize_reference


# -- expressions --------------------------------------------------------------


def test_parse_poly_basics():
    assert parse_poly("0") == {}
    assert parse_poly("x1") == P((1, 1, 0, 0))
    assert parse_poly("x1 + x2 - x3") == P((1, 1, 0, 0), (1, 0, 1, 0), (-1, 0, 0, 1))
    assert parse_poly("1/2*x1") == P((F(1, 2), 1, 0, 0))
    assert parse_poly("-x1^2") == P((-1, 2, 0, 0))
    assert parse_poly("3 - 3") == {}
    assert parse_poly("x2^2 - x1*x3") == P((1, 0, 2, 0), (-1, 1, 0, 1))


def test_parse_poly_products_and_powers():
    assert parse_poly("(x1+x2)^2") == P((1, 2, 0, 0), (2, 1, 1, 0), (1, 0, 2, 0))
    assert parse_poly("2^3") == P((8, 0, 0, 0))
    assert parse_poly("x1^2^3") == P((1, 8, 0, 0))  # right-associative tower


def test_parse_poly_nagata_component():
    p = parse_poly("x1 + 2*x2*(x2^2 - x1*x3) + x3*(x2^2 - x1*x3)^2")
    assert poly.deg(p) == (2, 0, 3)


def test_parse_poly_phi_variables():
    phi = parse_poly("y^2 + x2*y + x3^3", PHI_VARIABLES)
    assert phi == P((1, 2, 0, 0), (1, 1, 1, 0), (1, 0, 0, 3))


def expect_err(fn, cls, line=None, col=None, frag=None):
    with pytest.raises(cls) as info:
        fn()
    exc = info.value
    if line is not None:
        assert exc.line == line, str(exc)
    if col is not None:
        assert exc.column == col, str(exc)
    if frag is not None:
        assert frag in str(exc)
    return exc


def test_parse_poly_errors_carry_positions():
    expect_err(lambda: parse_poly("x4"), UnknownVariable, 1, 1, "x4")
    expect_err(lambda: parse_poly("x1 + y"), UnknownVariable, 1, 6)
    expect_err(lambda: parse_poly("x1/2"), ParseError, 1, 3)  # no division
    expect_err(lambda: parse_poly("x1 +"), ParseError, 1, 5, "end of input")
    expect_err(lambda: parse_poly("(x1"), ParseError, 1, 4)
    expect_err(lambda: parse_poly("x1^x2"), ParseError, 1, 4)
    expect_err(lambda: parse_poly("x1 @ x2"), ParseError, 1, 4)
    expect_err(lambda: parse_poly("1/0"), ParseError, 1, 1, "denominator")
    expect_err(lambda: parse_poly("x1 +\n x2 *"), ParseError, 2, 6)


def test_parse_poly_degree_caps():
    expect_err(lambda: parse_poly("x1^20000"), ParseError, 1, 4, "cap")
    expect_err(lambda: parse_poly("x1^2^100"), ParseError)


# -- the scanner --------------------------------------------------------------


def _scan(tokenize, text, line, column):
    try:
        return tokenize(text, line, column)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def _trailing_comment(text: str) -> int:
    last = text.rsplit("\n", 1)[-1]
    return len(last) - last.index("#") if "#" in last else 0


@settings(max_examples=500, deadline=None)
@given(SOURCE_TEXT, st.integers(1, 9), st.integers(1, 9))
def test_scanner_matches_the_reference_tokenizer(text, line, column):
    """Same tokens, or the same ParseError message and position, on every
    text the character loop reads without another exception."""
    got = _scan(_tokenize, text, line, column)
    try:
        want = _scan(tokenize_reference, text, line, column)
    except ValueError:  # a digit int() refuses: the scanner reports it instead
        assert isinstance(got, tuple), got
        return
    if isinstance(want, list):  # the reference's end stops at a trailing '#'
        end = want[-1]
        want[-1] = Token("end", None, end.line, end.column + _trailing_comment(text))
    assert got == want


def test_end_of_input_sits_past_a_trailing_comment():
    assert _tokenize("x1 # note")[-1] == Token("end", None, 1, 10)
    assert _tokenize("x1\n  # note", 4, 7)[-1] == Token("end", None, 5, 9)
    expect_err(lambda: parse_poly("x1 + # note"), ParseError, 1, 12, "end of input")


def test_literal_rule():
    assert parse_poly("x1 + ٣") == P((1, 1, 0, 0), (3, 0, 0, 0))  # int() reads ٣
    assert parse_poly("٣/٤") == P((F(3, 4), 0, 0, 0))
    expect_err(lambda: parse_poly("x1 + ²"), ParseError, 1, 6, "unexpected character '²'")
    expect_err(lambda: parse_poly("x1²"), UnknownVariable, 1, 1, "x1²")  # an identifier
    # the slash is reported, as for 1/½ and x1/2: ² starts no denominator
    expect_err(lambda: parse_poly("1/²"), ParseError, 1, 2, "unexpected character '/'")
    expect_err(lambda: parse_poly("x1 + 12²"), ParseError, 1, 8, "'²'")
    expect_err(lambda: parse_poly("x1 + " + "9" * 5000), ParseError, 1, 6, "literal longer")
    expect_err(lambda: parse_poly("x1 + 1/" + "9" * 5000), ParseError, 1, 6, "literal longer")


@pytest.mark.parametrize("n", [1, 2, 3, 10_000])
def test_minus_runs_and_exponent_towers_of_any_length(n):
    x1, x2 = P((1, 1, 0, 0)), P((1, 0, 1, 0))
    assert parse_poly("-" * n + "x1") == (poly.neg(x1) if n % 2 else x1)
    assert parse_poly("x2 -" + "-" * n + "x1") == poly.sub(x2, parse_poly("-" * n + "x1"))
    assert parse_poly("x1" + "^1" * n) == x1
    assert parse_poly("x1^2" + "^1" * n) == parse_poly("x1^2")


@pytest.mark.parametrize("n", [4, 5, 10_000])
def test_exponent_tower_caps_at_the_same_token(n):
    # x1^2^2^...^2: from the top, 2, 4, 16, then 2^16 passes the cap at the
    # fourth base from the end, column 2n - 4 (column 4 for n = 4)
    expect_err(lambda: parse_poly("x1" + "^2" * n), ParseError, 1, 2 * n - 4, "cap")
    expect_err(lambda: parse_poly("x1" + "^1" * n + "^100"), ParseError, 1, 2 * n + 2, "cap")


def test_nesting_past_the_cap_is_a_positioned_error():
    deep = MAX_NESTING
    assert parse_poly("(" * deep + "x1" + ")" * deep) == P((1, 1, 0, 0))
    assert parse_poly("-(" * deep + "x1" + ")" * deep) == P(((-1) ** deep, 1, 0, 0))
    for n in (deep + 1, 300, 10_000):
        expect_err(
            lambda: parse_poly("(" * n + "x1" + ")" * n), ParseError, 1, deep + 1, "nested"
        )
        expect_err(lambda: parse_poly("x2 * " + "(" * n), ParseError, 1, deep + 6, "nested")


# -- the one-term fast paths ---------------------------------------------------

_LEAVES = ("x1", "x2", "x3", "0", "1", "7", "0/5", "3/4", "12/8")


@st.composite
def _expression(draw, depth=3):
    """Expression text and a bound on the terms of any product or power in
    it, which keeps the generic parser's expansions small."""
    kind = draw(st.sampled_from(("leaf", "sum", "product", "group", "negation")))
    if depth == 0 or kind == "leaf":
        tower = draw(st.lists(st.sampled_from("01234"), max_size=3))
        return draw(st.sampled_from(_LEAVES)) + "".join("^" + e for e in tower), 1
    if kind == "negation":
        text, terms = draw(_expression(depth - 1))
        return "-" + text, terms
    (a, ta), (b, tb) = draw(_expression(depth - 1)), draw(_expression(depth - 1))
    terms = ta * tb + ta + tb  # bounds both a·b and a ± b
    if kind == "sum":
        return a + draw(st.sampled_from(("+", " - ", "-"))) + b, terms
    if kind == "product":
        return a + draw(st.sampled_from(("*", " * "))) + b, terms
    # a group raised to k (^k, ^k^1) or to 1 (^1^k): at most C(t + k - 1, k)
    # terms, the monomials of degree k in t others
    op = draw(st.sampled_from(("+", "-", "*")))
    k = draw(st.sampled_from([k for k in range(5) if math.comb(terms + k - 1, k) <= 40]))
    tower = draw(st.sampled_from((f"^{k}", f"^{k}^1", f"^1^{k}")))
    return f"({a}{op}{b}){tower}", max(terms, math.comb(terms + k - 1, k))


def _outcome(parse, text, variables):
    try:
        return parse(text, variables)
    except Tame3Error as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(_expression().map(lambda t: t[0]), SOURCE_TEXT),
    st.sampled_from((COMPONENT_VARIABLES, PHI_VARIABLES)),
)
def test_fast_parser_matches_the_generic_parser(text, variables):
    """The same Poly, or the same exception type and message (a ParseError's
    message carries its position), as with every product through poly.mul
    and every power through poly.p_pow."""
    assert _outcome(parse_poly, text, variables) == _outcome(parse_poly_generic, text, variables)


@pytest.mark.parametrize(
    "text, degree", [("(x1^2)^5001", 10_002), ("x1^6000*x1^5000", 11_000)]
)
def test_one_term_products_past_the_cap_overflow_as_before(text, degree):
    message = f"product degree {degree} exceeds cap 10000"
    for parse in (parse_poly, parse_poly_generic):
        exc = expect_err(lambda: parse(text, COMPONENT_VARIABLES), DegreeOverflow)
        assert str(exc) == message


def _calls_from(monkeypatch, module, name, caller):
    """Count calls to module.name made directly from the module ``caller``."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == caller:
            calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_loading_an_expanded_witnessed_file_multiplies_nothing(monkeypatch):
    # one-term products and powers are built directly, and a re-checked word
    # that evaluates to the components proves the Jacobian
    witnessed = format_automorphism(QUINTIC)
    bare = format_automorphism(Automorphism(QUINTIC.components))
    products = _calls_from(monkeypatch, poly, "mul", "tame3.parsing")
    powers = _calls_from(monkeypatch, poly, "p_pow", "tame3.parsing")
    wedges = _calls_from(monkeypatch, forms, "wedge_degree", "tame3.vertices")
    assert parse_automorphism(witnessed) == QUINTIC
    assert products == powers == wedges == []
    assert parse_automorphism(bare).components == QUINTIC.components
    assert products == powers == [] and len(wedges) == 1


def test_format_poly():
    assert format_poly({}) == "0"
    assert format_poly(P((1, 1, 0, 0))) == "x1"
    assert (
        format_poly(P((-1, 2, 0, 0), (F(3, 4), 0, 1, 1), (-2, 0, 0, 0)))
        == "-x1^2 + 3/4*x2*x3 - 2"
    )


def test_format_poly_round_trips():
    rng = random.Random(7)
    for _ in range(200):
        p = {}
        for _ in range(rng.randrange(0, 7)):
            e = (rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 5))
            c = F(rng.randrange(-9, 10), rng.randrange(1, 8))
            if c:
                p[e] = c
        assert parse_poly(format_poly(p)) == p


# -- automorphism files -------------------------------------------------------


def test_parse_automorphism_plain():
    f = parse_automorphism(NAGATA_SOURCE)
    assert f.witness is None
    assert poly.deg(f.components[0]) == (2, 0, 3)
    assert poly.deg(f.components[1]) == (1, 0, 2)


def test_parse_automorphism_with_comments_and_semicolons():
    f = parse_automorphism("# identity\nx1; x2; x3")
    assert f.components == (P((1, 1, 0, 0)), P((1, 0, 1, 0)), P((1, 0, 0, 1)))


def test_parse_automorphism_with_inline_word_factor():
    src = (
        "word: elem 1 (x2^2)\n"
        "elem 2 (2*x3)\n"
        "x1 + x2^2 + 4*x2*x3 + 4*x3^2\n"
        "x2 + 2*x3\n"
        "x3\n"
    )
    f = parse_automorphism(src)
    assert f.witness is not None and len(f.witness.factors) == 2
    assert f.components == (
        P((1, 1, 0, 0), (1, 0, 2, 0), (4, 0, 1, 1), (4, 0, 0, 2)),
        P((1, 0, 1, 0), (2, 0, 0, 1)),
        P((1, 0, 0, 1)),
    )


def test_parse_automorphism_with_affine_factor():
    src = (
        "word:\n"
        "affine 0 1 0 1 0 0 0 0 1 0 0 0\n"
        "elem 3 (x1*x2)\n"
        "x2\n"
        "x1\n"
        "x3 + x1*x2\n"
    )
    f = parse_automorphism(src)
    assert f.witness is not None
    assert f.components == (
        P((1, 0, 1, 0)),
        P((1, 1, 0, 0)),
        P((1, 0, 0, 1), (1, 1, 1, 0)),
    )


def test_parse_automorphism_rejects_bad_inputs():
    expect_err(
        lambda: parse_automorphism("word: elem 1 (x2^2)\nx1\nx2\nx3"),
        WitnessMismatch,
    )
    expect_err(lambda: parse_automorphism("x1; x1; x3"), DependentInputs)
    expect_err(lambda: parse_automorphism("x1; x2"), ParseError, frag="three")
    expect_err(lambda: parse_automorphism("x1; x2; x3; x1"), ParseError, frag="three")


def test_parse_automorphism_word_line_errors():
    # the error position points inside the factor's expression
    expect_err(
        lambda: parse_automorphism("word: elem 1 (x4)\nx1\nx2\nx3"),
        UnknownVariable,
        1,
        15,
    )
    expect_err(
        lambda: parse_automorphism("word: elem 1 (x1)\nx1\nx2\nx3"),
        ParseError,
        frag="involve",
    )
    expect_err(
        lambda: parse_automorphism("word:\naffine 1 0 0\nx1\nx2\nx3"),
        ParseError,
        2,
        frag="12",
    )
    expect_err(
        lambda: parse_automorphism("word:\naffine 1 0 0 0 1 0 0 0 zz 0 0 0\nx1\nx2\nx3"),
        ParseError,
        2,
        frag="zz",
    )


def test_parse_automorphism_positions_cross_lines():
    expect_err(lambda: parse_automorphism("x1\nx2\nx3 + x9"), UnknownVariable, 3, 6)


def test_component_column_counts_from_its_own_chunk():
    # the third chunk's text also occurs at the start of the line
    expect_err(lambda: parse_automorphism("x1 + x2^2; x3; x2^"), ParseError, 1, 19, "'int'")
    expect_err(lambda: parse_automorphism("x1; x2;x1 + x9"), UnknownVariable, 1, 13)
    expect_err(lambda: parse_automorphism("x2 ;x1; x1 ^"), ParseError, 1, 13)


def test_affine_entries_are_signed_literals():
    f = parse_automorphism("word:\naffine -1 0 0 0 1 0 0 0 ٣ +1/2 0 -0\n-x1 + 1/2\nx2\n3*x3\n")
    (factor,) = f.witness.factors
    assert factor.matrix == ((-1, 0, 0), (0, 1, 0), (0, 0, 3))
    assert factor.shift == (F(1, 2), 0, 0)
    for entry in ("1.5", "1e999999999", ".5", "1_0", "1/-2", "+-1"):
        src = f"word:\naffine 1 0 0 0 1 0 0 0 1 {entry} 0 0\nx1\nx2\nx3"
        expect_err(lambda: parse_automorphism(src), ParseError, 2, 26, f"bad rational {entry!r}")
    src = "word:\naffine 1 0 0 0 1 0 0 0 1 1/0 0 0\nx1\nx2\nx3"
    expect_err(lambda: parse_automorphism(src), ParseError, 2, 26, "zero denominator")
    src = "word:\naffine 1 0 0 0 1 0 0 0 1 -" + "7" * 5000 + " 0 0\nx1\nx2\nx3"
    expect_err(lambda: parse_automorphism(src), ParseError, 2, 26, "literal longer")


def test_format_automorphism_round_trips():
    sources = (
        NAGATA_SOURCE,
        "x1; x2; x3",
        "word: elem 1 (x2^2)\nelem 2 (2*x3)\n"
        "x1 + x2^2 + 4*x2*x3 + 4*x3^2\nx2 + 2*x3\nx3\n",
        "word:\naffine 0 1 0 1 0 0 0 0 1 0 0 0\nelem 3 (x1*x2)\n"
        "x2\nx1\nx3 + x1*x2\n",
    )
    for src in sources:
        f = parse_automorphism(src)
        back = parse_automorphism(format_automorphism(f))
        assert back.components == f.components
        assert (back.witness is None) == (f.witness is None)
        if f.witness is not None:
            assert back.witness.factors == f.witness.factors

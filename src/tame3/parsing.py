"""Expression parsing, the automorphism file format, and canonical printing.

Expression grammar, binding tighter downward; ``^`` is right-associative and
takes non-negative integer exponents only:

    sum     := negation (('+' | '-') negation)*
    negation:= '-' negation | product
    product := power ('*' power)*
    power   := atom ('^' exponent)?
    atom    := RATIONAL | INT | VARIABLE | '(' sum ')'

RATIONAL is INT '/' INT recognized in the lexer, so a rational literal binds
tighter than '*': ``1/2*x1`` is (1/2)·x1.  General division is not in the
grammar — ``x1/2`` is a syntax error at the slash.

An automorphism file is UTF-8 text with ``#`` comments: an optional ``word:``
prologue listing tame factors (``affine`` with twelve rationals, row-major
matrix then shift, or ``elem i (EXPR)``), leftmost outermost, followed by
exactly three component expressions separated by semicolons or newlines.  A
declared word must evaluate to the components exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from tame3 import poly
from tame3.errors import ParseError, UnknownVariable
from tame3.poly import MAX_TOTAL_DEGREE, Poly
from tame3.vertices import (
    Affine,
    Automorphism,
    Elementary,
    TameWord,
    affine,
    automorphism,
    elementary,
)

COMPONENT_VARIABLES: Mapping[str, int] = {"x1": 0, "x2": 1, "x3": 2}
# For entering φ of the parachute bound: y stands for the component the
# polynomial is applied to, x2/x3 for the coefficient components.
PHI_VARIABLES: Mapping[str, int] = {"y": 0, "x2": 1, "x3": 2}

_OPS = "+-*^()"


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "rational" | "ident" | one of _OPS | "end"
    value: object
    line: int
    column: int


def _tokenize(text: str, line: int = 1, column: int = 1) -> list[Token]:
    """Tokens with 1-based positions; line/column seed embedded sources."""
    out: list[Token] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            column += 1
            continue
        if c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = column
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            column += j - i
            i = j
            if i < len(text) and text[i] == "/" and i + 1 < len(text) and text[i + 1].isdigit():
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                den = int(text[i + 1 : j])
                if den == 0:
                    raise ParseError("zero denominator in rational literal", line, start_col)
                column += j - i
                i = j
                out.append(Token("rational", Fraction(num, den), line, start_col))
            else:
                out.append(Token("int", num, line, start_col))
            continue
        if c.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("ident", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if c in _OPS:
            out.append(Token(c, c, line, start_col))
            i += 1
            column += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    out.append(Token("end", None, line, column))
    return out


class _Parser:
    """Recursive descent over the token list; one instance per expression."""

    def __init__(self, tokens: list[Token], variables: Mapping[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.take()
        if tok.kind != kind:
            shown = "end of input" if tok.kind == "end" else repr(tok.value)
            raise ParseError(f"expected {kind!r}, found {shown}", tok.line, tok.column)
        return tok

    def parse(self) -> Poly:
        p = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.value!r} after expression", tok.line, tok.column)
        return p

    def sum(self) -> Poly:
        p = self.negation()
        while self.peek().kind in "+-":
            if self.take().kind == "+":
                p = poly.add(p, self.negation())
            else:
                p = poly.sub(p, self.negation())
        return p

    def negation(self) -> Poly:
        if self.peek().kind == "-":
            self.take()
            return poly.neg(self.negation())
        return self.product()

    def product(self) -> Poly:
        p = self.power()
        while self.peek().kind == "*":
            self.take()
            p = poly.mul(p, self.power())
        return p

    def power(self) -> Poly:
        p = self.atom()
        if self.peek().kind == "^":
            self.take()
            return poly.p_pow(p, self.exponent())
        return p

    def exponent(self) -> int:
        tok = self.expect("int")
        e = tok.value
        if self.peek().kind == "^":  # right-associative integer tower
            self.take()
            rest = self.exponent()
            if rest > 60 or e**min(rest, 60) > MAX_TOTAL_DEGREE:
                raise ParseError("exponent exceeds the degree cap", tok.line, tok.column)
            e = e**rest
        if e > MAX_TOTAL_DEGREE:
            raise ParseError("exponent exceeds the degree cap", tok.line, tok.column)
        return e

    def atom(self) -> Poly:
        tok = self.take()
        if tok.kind in ("int", "rational"):
            return poly.const(Fraction(tok.value))
        if tok.kind == "ident":
            slot = self.variables.get(tok.value)
            if slot is None:
                expected = ", ".join(self.variables)
                raise UnknownVariable(
                    f"unknown variable {tok.value!r} (expected {expected})",
                    tok.line,
                    tok.column,
                )
            return poly.variable(slot + 1)
        if tok.kind == "(":
            p = self.sum()
            self.expect(")")
            return p
        shown = "end of input" if tok.kind == "end" else repr(tok.value)
        raise ParseError(f"expected an expression, found {shown}", tok.line, tok.column)


def parse_poly(
    text: str,
    variables: Mapping[str, int] = COMPONENT_VARIABLES,
    line: int = 1,
    column: int = 1,
) -> Poly:
    """Exact polynomial from source text; line/column seed embedded sources."""
    return _Parser(_tokenize(text, line, column), variables).parse()


# ---------------------------------------------------------------------------
# Canonical printing (parse ∘ format_poly is the identity)
# ---------------------------------------------------------------------------

_NAMES = ("x1", "x2", "x3")


def _format_monomial(e: tuple[int, int, int]) -> str:
    return "*".join(
        name if k == 1 else f"{name}^{k}" for name, k in zip(_NAMES, e) if k
    )


def format_poly(p: Poly) -> str:
    """Terms in decreasing degree, rationals as a/b — re-parseable exactly."""
    if not p:
        return "0"
    parts: list[str] = []
    for e, c in poly.sorted_terms(p):
        mag = -c if c < 0 else c
        body = _format_monomial(e)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Automorphism files
# ---------------------------------------------------------------------------

def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def _parse_affine_line(body: str, line_no: int, offset: int) -> Affine:
    entries: list[Fraction] = []
    cursor = 0
    for field in body.split():
        at = body.index(field, cursor)
        cursor = at + len(field)
        try:
            entries.append(Fraction(field))
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"bad rational {field!r} in affine factor", line_no, offset + at
            )
    if len(entries) != 12:
        raise ParseError(
            f"affine factor needs 12 rationals (matrix rows then shift), got {len(entries)}",
            line_no,
            offset,
        )
    matrix = tuple(tuple(entries[3 * r : 3 * r + 3]) for r in range(3))
    return affine(matrix, tuple(entries[9:12]))


def _parse_elem_line(body: str, line_no: int, offset: int) -> Elementary:
    stripped = body.strip()
    start = offset + body.index(stripped[0]) if stripped else offset
    head, _, rest = stripped.partition("(")
    if not _ or not rest.rstrip().endswith(")"):
        raise ParseError("elem factor needs a parenthesized expression", line_no, start)
    try:
        index = int(head.strip())
    except ValueError:
        raise ParseError(f"bad elementary index {head.strip()!r}", line_no, start)
    expr = rest.rstrip()[:-1]
    expr_col = offset + body.index("(") + 1
    p = parse_poly(expr, COMPONENT_VARIABLES, line_no, expr_col)
    try:
        return elementary(index, p)
    except ValueError as exc:
        raise ParseError(str(exc), line_no, start)


def parse_automorphism(text: str) -> Automorphism:
    """Automorphism from file text; witnessed when a word prologue is present.

    Raises ParseError with position for malformed input, WitnessMismatch when
    a declared word does not evaluate to the components, DependentInputs when
    the components are not independent, NotAnAutomorphism when their
    Jacobian is not a constant.
    """
    lines = text.splitlines()
    factors: list[Affine | Elementary] | None = None
    exprs: list[tuple[str, int, int]] = []
    for line_no, raw in enumerate(lines, start=1):
        content = _strip_comment(raw)
        stripped = content.strip()
        if not stripped:
            continue
        offset = content.index(stripped[0]) + 1
        if factors is None and not exprs and stripped.startswith("word:"):
            factors = []
            stripped = stripped[len("word:") :].strip()
            if not stripped:
                continue
            offset = content.index(stripped[0], content.index("word:") + len("word:")) + 1
        if factors is not None and not exprs:
            head = stripped.split(None, 1)[0]
            if head == "affine":
                body = stripped[len("affine") :]
                factors.append(_parse_affine_line(body, line_no, offset + len("affine")))
                continue
            if head == "elem":
                body = stripped[len("elem") :]
                factors.append(_parse_elem_line(body, line_no, offset + len("elem")))
                continue
        for chunk in content.split(";"):
            sub = chunk.strip()
            if sub:
                exprs.append((sub, line_no, content.index(sub) + 1))
    if len(exprs) != 3:
        where = len(lines)
        raise ParseError(
            f"expected exactly three component expressions, got {len(exprs)}",
            max(where, 1),
            1,
        )
    components = tuple(
        parse_poly(src, COMPONENT_VARIABLES, line_no, col) for src, line_no, col in exprs
    )
    witness = TameWord(tuple(factors)) if factors is not None else None
    return automorphism(components, witness)


def format_automorphism(f: Automorphism) -> str:
    """File text that parses back to f, word prologue included when witnessed."""
    out: list[str] = []
    if f.witness is not None:
        out.append("word:")
        for factor in f.witness.factors:
            if isinstance(factor, Affine):
                flat = [a for row in factor.matrix for a in row] + list(factor.shift)
                out.append("affine " + " ".join(str(a) for a in flat))
            else:
                out.append(f"elem {factor.index} ({format_poly(factor.p)})")
    out.extend(format_poly(c) for c in f.components)
    return "\n".join(out) + "\n"

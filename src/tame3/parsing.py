"""Expression parsing, the automorphism file format, and canonical printing.

Tokens come from one regular expression; at each place the first of these
matches:

    newline     '\\n', which starts the next line at column 1
    space       any other str.isspace() character, skipped
    comment     '#' to the end of the line, skipped
    number      LITERAL := INT ('/' INT)?, an "int" or a "rational"
    identifier  a str.isalpha() letter, then letters, digits or '_'
    operator    one of + - * ^ ( )
    other       any other character: "unexpected character"

INT is decimal digits as int() reads them (``٣`` is 3; ``²`` and ``½`` are
other).  ``affine`` entries are a LITERAL with an optional sign.  A literal
past int()'s digit limit, or with a zero denominator, is an error at its
first column.  The end of input is one column past the text, comment and all.

Expression grammar, binding tighter downward; ``^`` is right-associative and
takes non-negative integer exponents only:

    sum     := negation (('+' | '-') negation)*
    negation:= '-' negation | product
    product := power ('*' power)*
    power   := atom ('^' exponent)?
    atom    := RATIONAL | INT | VARIABLE | '(' sum ')'

A rational literal binds tighter than '*': ``1/2*x1`` is (1/2)·x1.  General
division is not in the grammar — ``x1/2`` is a syntax error at the slash.
Parentheses nest at most MAX_NESTING deep; the '(' past that is an error.

A product of one-term operands is built directly, as one exponent sum and
one coefficient product, and so is a one-term base raised to n ≥ 1; every
other product or power, and any whose total degree passes MAX_TOTAL_DEGREE,
goes through ``poly.mul``/``poly.p_pow``, which raise the DegreeOverflow.
Sums accumulate into one dict.

An automorphism file is UTF-8 text with ``#`` comments: an optional ``word:``
prologue listing tame factors (``affine`` with twelve rationals, row-major
matrix then shift, or ``elem i (EXPR)``), leftmost outermost, followed by
exactly three component expressions separated by semicolons or newlines.  A
declared word must evaluate to the components exactly.
"""

from __future__ import annotations

import re
import sys
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

MAX_NESTING = 200  # parenthesis depth; three parser frames per level

_LITERAL = r"(?P<num>\d+)(?:/(?P<den>\d+))?"
_SIGNED_LITERAL = re.compile(rf"(?P<sign>[+-]?){_LITERAL}")
_LEXICAL = re.compile(
    rf"(?P<newline>\n)|(?P<space>\s)|(?P<comment>#.*)|(?P<number>{_LITERAL})"
    r"|(?P<ident>\w+)|(?P<op>[-+*^()])|(?P<other>.)"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "rational" | "ident" | one of + - * ^ ( ) | "end"
    value: object
    line: int
    column: int


def _literal(m: re.Match, line: int, column: int) -> int | Fraction:
    """An int, or a Fraction when the LITERAL match has a denominator."""
    try:
        num, den = int(m["num"]), int(m["den"] or 1)
    except ValueError:  # int() refuses digit strings past its limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"number literal longer than {limit} digits", line, column) from None
    if den == 0:
        raise ParseError("zero denominator in rational literal", line, column)
    return num if m["den"] is None else Fraction(num, den)


def _tokenize(text: str, line: int = 1, column: int = 1) -> list[Token]:
    """Tokens with 1-based positions; line/column seed embedded sources."""
    out: list[Token] = []
    base = -column  # the match at index i sits in column i - base
    for m in _LEXICAL.finditer(text):
        kind, col = m.lastgroup, m.start() - base
        if kind == "newline":
            line, base = line + 1, m.start()
        elif kind == "number":
            kind = "int" if m["den"] is None else "rational"
            out.append(Token(kind, _literal(m, line, col), line, col))
        elif kind == "ident" and m[0][0].isalpha():
            out.append(Token("ident", m[0], line, col))
        elif kind == "op":
            out.append(Token(m[0], m[0], line, col))
        elif kind not in ("space", "comment"):
            raise ParseError(f"unexpected character {m[0][0]!r}", line, col)
    out.append(Token("end", None, line, len(text) - base))
    return out


class _Parser:
    """Recursive descent over the token list; one instance per expression."""

    def __init__(self, tokens: list[Token], variables: Mapping[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses
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
        # sum and negation: each leading '-' flips the sign of its term; the
        # terms accumulate in one dict, which no operand shares
        p: Poly = {}
        sign = "+"
        while True:
            while self.peek().kind == "-":
                self.take()
                sign = "+" if sign == "-" else "-"
            for e, c in self.product().items():
                s = p.get(e, 0) + (c if sign == "+" else -c)
                if s:
                    p[e] = s
                else:
                    del p[e]
            if self.peek().kind not in "+-":
                return p
            sign = self.take().kind

    def product(self) -> Poly:
        p = self.power(self.atom())
        while self.peek().kind == "*":
            self.take()
            q = self.power(self.atom())
            if len(p) == len(q) == 1:
                (ea, ca), (eb, cb) = *p.items(), *q.items()
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                if sum(e) <= MAX_TOTAL_DEGREE:
                    p = {e: ca * cb}
                    continue
            p = poly.mul(p, q)  # raises the same DegreeOverflow past the cap
        return p

    def power(self, base: Poly) -> Poly:
        if self.peek().kind != "^":
            return base
        self.take()
        n = self.exponent()
        if len(base) == 1 and n >= 1:
            ((e, c),) = base.items()
            if sum(e) * n <= MAX_TOTAL_DEGREE:
                return {(e[0] * n, e[1] * n, e[2] * n): c**n}
        return poly.p_pow(base, n)  # raises the same DegreeOverflow past the cap

    def exponent(self) -> int:
        # a right-associative tower, capped from the top down at each base
        tower = [self.expect("int")]
        while self.peek().kind == "^":
            self.take()
            tower.append(self.expect("int"))
        e = 1
        for tok in reversed(tower):
            if e > 60 or tok.value**e > MAX_TOTAL_DEGREE:
                raise ParseError("exponent exceeds the degree cap", tok.line, tok.column)
            e = tok.value**e
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
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"over {MAX_NESTING} nested parentheses", tok.line, tok.column)
            p = self.sum()
            self.expect(")")
            self.depth -= 1
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

def _parse_affine_line(body: str, line_no: int, offset: int) -> Affine:
    entries: list[int | Fraction] = []
    for field in re.finditer(r"\S+", body):
        column = offset + field.start()
        m = _SIGNED_LITERAL.fullmatch(field[0])
        if m is None:
            raise ParseError(f"bad rational {field[0]!r} in affine factor", line_no, column)
        value = _literal(m, line_no, column)
        entries.append(-value if m["sign"] == "-" else value)
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
        content = raw.partition("#")[0]
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
        cursor = 1
        for chunk in content.split(";"):
            sub = chunk.strip()
            if sub:
                exprs.append((sub, line_no, cursor + chunk.index(sub)))
            cursor += len(chunk) + 1
    if len(exprs) != 3:
        raise ParseError(
            f"expected exactly three component expressions, got {len(exprs)}", max(len(lines), 1), 1
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

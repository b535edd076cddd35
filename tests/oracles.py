"""Independent reference implementations used to cross-check the library.

Everything here trades speed for obviousness: direct convolution for
products, monomial-by-monomial expansion for substitution, term-by-term
powers for y-polynomials, synthetic division for root orders, derivatives
evaluated in full for multiplicities, evaluation and word application
modulo 2⁶¹ − 1 term by term, a filter over the support for top
forms and top components, word factors read off their fields, ranks read
off nonzero minors, and good representatives by sorting and cancelling
colliding neighbours.  None of it goes through the packed multiplication
kernel, the library's Horner loop, its top component, the factors' own
methods or the library's elimination, except the three references kept
from deleted library code: orbit equality by a determinant, completion by
the first component outside a line, and the simple-move search by greedy
top-term stripping.  They read affine coordinates through
``linalg.affine_coordinates``, which is checked against ``rank`` itself.
The character-by-character tokenizer is kept from deleted library code too,
as the reference for the scanner, and so is the parser's generic product
and power, through ``poly.mul`` and ``poly.p_pow``, as the reference for
its one-term fast paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping

from tame3 import linalg, poly
from tame3.analysis import BiPoly, PolyInY
from tame3.errors import DegenerateTuple, ParseError
from tame3.parsing import Token, _Parser, _tokenize
from tame3.poly import Poly
from tame3.vertices import Affine

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def naive_mul(a: Poly, b: Poly) -> Poly:
    """Tuple-exponent convolution, no packing, no denominator clearing."""
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def naive_pow(p: Poly, k: int) -> Poly:
    out: Poly = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        out = naive_mul(out, p)
    return out


def naive_substitute(p: Poly, targets: tuple[Poly, Poly, Poly]) -> Poly:
    """Σ c · t1^a1 · t2^a2 · t3^a3, expanded monomial by monomial."""
    out: Poly = {}
    for (a1, a2, a3), c in p.items():
        term = {(0, 0, 0): c}
        for t, a in zip(targets, (a1, a2, a3)):
            if a:
                term = naive_mul(term, naive_pow(t, a))
        for e, cc in term.items():
            s = out.get(e, Fraction(0)) + cc
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def evaluate(p: Poly, pt: tuple[Fraction, Fraction, Fraction]) -> Fraction:
    """p at a rational point, term by term."""
    x, y, z = pt
    return sum((c * x**a * y**b * z**d for (a, b, d), c in p.items()), Fraction(0))


MOD_P = (1 << 61) - 1


def evaluate_mod_p(p: Poly, pt: tuple[int, int, int]) -> int:
    """p at a point of F_p³, p = 2⁶¹ − 1, term by term.

    Every denominator must be prime to p.  A polynomial identity over ℚ
    holds mod p at every point, so a mismatch refutes it outright.
    """
    x, y, z = pt
    total = 0
    for (a, b, d), c in p.items():
        c = Fraction(c)
        coeff = c.numerator * pow(c.denominator, -1, MOD_P)
        total += coeff * pow(x, a, MOD_P) * pow(y, b, MOD_P) * pow(z, d, MOD_P)
    return total % MOD_P


def apply_word_mod_p(factors, pt: tuple[int, int, int]) -> tuple[int, int, int]:
    """(w1 ∘ ⋯ ∘ wn)(pt) mod p: the rightmost factor first, each one through
    the components read off its fields."""
    for factor in reversed(factors):
        pt = tuple(evaluate_mod_p(c, pt) for c in factor_components(factor))
    return pt


def factor_components(factor) -> tuple[Poly, Poly, Poly]:
    """A word factor's components, read off its matrix and shift or index and P."""
    if isinstance(factor, Affine):
        out = []
        for row, b in zip(factor.matrix, factor.shift):
            comp = {e: a for e, a in zip(_UNITS, row) if a}
            if b:
                comp[(0, 0, 0)] = b
            out.append(comp)
        return tuple(out)
    out = [{e: Fraction(1)} for e in _UNITS]
    out[factor.index - 1].update(factor.p)  # P does not involve x_index
    return tuple(out)


def apply_factor(factor, pt: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """The image of a rational point under one word factor."""
    if isinstance(factor, Affine):
        return tuple(
            b + sum(a * x for a, x in zip(row, pt))
            for row, b in zip(factor.matrix, factor.shift)
        )
    out = list(pt)
    out[factor.index - 1] += evaluate(factor.p, pt)
    return tuple(out)


def top_form(p: Poly) -> Poly:
    """All terms of maximal graded-lex degree — for a 'top term' this is
    a singleton; kept general for cross-checking degree logic."""
    if not p:
        return {}
    d = max(p, key=poly.grlex_key)
    return {d: p[d]}


def _degree(p: Poly) -> tuple[int, int, int]:
    """The exponent of top_form(p)."""
    (d,) = top_form(p)
    return d


def _index_degrees(phi: PolyInY, g: Poly) -> dict[int, tuple[int, int, int]]:
    """deg Pᵢ + i·deg g for every index i of φ, read off top forms."""
    dg = _degree(g)
    return {i: tuple(a + i * b for a, b in zip(_degree(p), dg)) for i, p in phi.items()}


def _virtual(phi: PolyInY, g: Poly) -> tuple[int, int, int]:
    """The virtual degree: max over i of deg Pᵢ + i·deg g."""
    return max(_index_degrees(phi, g).values(), key=poly.grlex_key)


def naive_top_component(phi: PolyInY, g: Poly) -> PolyInY:
    """Σ top_form(Pᵢ)·yⁱ over the indices i whose deg Pᵢ + i·deg g is maximal."""
    vd = _virtual(phi, g)
    return {i: top_form(phi[i]) for i, d in _index_degrees(phi, g).items() if d == vd}


def naive_eval_y(phi: PolyInY, g: Poly) -> Poly:
    """Σ Pᵢ·gⁱ, each power built by repeated naive multiplication."""
    out: Poly = {}
    for i, p in phi.items():
        out = poly.add(out, naive_mul(p, naive_pow(g, i)))
    return out


def naive_curry_y(phi: BiPoly, h: Poly) -> PolyInY:
    """φ(y, z) as a y-polynomial with coefficients Pᵢ = Σ_j c_{ij}·hʲ."""
    out: PolyInY = {}
    for (i, j), c in phi.items():
        if not c:
            continue
        term = {e: c * cc for e, cc in naive_pow(h, j).items()}
        out[i] = poly.add(out.get(i, {}), term)
    return {i: p for i, p in out.items() if p}


def derivative_multiplicity(phi: PolyInY, g: Poly) -> int:
    """m(φ, g) by its definition: the smallest m with deg φ⁽ᵐ⁾(g) equal to
    the virtual degree of φ⁽ᵐ⁾ with respect to g (y-derivatives).

    Evaluates every derivative in full; each step lowers the y-degree, and
    a y-constant φ has no cancellation at all.
    """
    m = 0
    while poly.deg(naive_eval_y(phi, g)) != _virtual(phi, g):
        phi = {i - 1: {e: i * c for e, c in p.items()} for i, p in phi.items() if i}
        m += 1
    return m


def root_order(phi: PolyInY, g: Poly) -> int:
    """Order of ḡ (the top term of g) as a root of the top component of φ.

    Repeated synthetic division of naive_top_component(φ, g) by (y − ḡ):
    divide while the remainder vanishes.  The claimed equality with
    analysis.multiplicity and derivative_multiplicity is what the caller
    tests.
    """
    bar = naive_top_component(phi, g)
    gbar = top_form(g)
    order = 0
    while bar:
        n = max(bar)
        if n == 0:
            return order  # y-free and nonzero: no further factor (y − ḡ)
        quot: PolyInY = {}
        acc: Poly = {}
        for i in range(n, 0, -1):
            acc = poly.add(acc, bar.get(i, {}))
            quot[i - 1] = acc
            acc = naive_mul(acc, gbar)
        remainder = poly.add(acc, bar.get(0, {}))
        if remainder:
            return order
        order += 1
        bar = {i: q for i, q in quot.items() if q}
    return order


def y_mul(a: PolyInY, b: PolyInY) -> PolyInY:
    """Product of two y-polynomials with Poly coefficients (test scaffolding)."""
    out: PolyInY = {}
    for i, p in a.items():
        for j, q in b.items():
            out[i + j] = poly.add(out.get(i + j, {}), naive_mul(p, q))
    return {i: p for i, p in out.items() if p}


def det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def rank(vectors: list[dict]) -> int:
    """Largest k with a nonzero k×k minor, the vectors taken as columns."""
    keys = list({k for v in vectors for k in v})
    m = [[v.get(k, Fraction(0)) for v in vectors] for k in keys]
    for k in range(min(len(m), len(vectors)), 0, -1):
        for rs in combinations(range(len(m)), k):
            for cs in combinations(range(len(vectors)), k):
                if det([[m[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def sort_and_collide(components: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """The good representative by repeated neighbour collisions.

    Drops constants, sorts by (graded-lex degree, input index), and replaces
    the later of the first two neighbours with equal degrees by itself minus
    the proportional multiple of the earlier one, until the degrees are
    distinct; then scales every component monic.
    """
    work = []
    for i, p in enumerate(components):
        q = dict(p)
        q.pop((0, 0, 0), None)
        if not q:
            raise DegenerateTuple(f"component {i + 1} is constant")
        work.append((q, i))
    while True:
        work.sort(key=lambda t: (poly.grlex_key(poly.deg(t[0])), t[1]))
        k = next(
            (k for k in range(1, len(work))
             if poly.deg(work[k - 1][0]) == poly.deg(work[k][0])),
            None,
        )
        if k is None:
            return tuple(poly.scale(1 / poly.top_term(p).coefficient, p) for p, _ in work)
        (pa, _), (pb, ib) = work[k - 1], work[k]
        ratio = poly.top_term(pb).coefficient / poly.top_term(pa).coefficient
        q = poly.sub(pb, poly.scale(ratio, pa))
        q.pop((0, 0, 0), None)
        if not q:
            raise DegenerateTuple("components are linearly dependent with constants")
        work[k] = (q, ib)


def determinant_orbit_equal(a: tuple[Poly, ...], b: tuple[Poly, ...]) -> bool:
    """Affine-orbit equality of same-length tuples, a canonical: every
    component of b has affine coordinates over a, and the matrix of their
    linear parts has a nonzero determinant."""
    matrix = []
    for q in b:
        coords = linalg.affine_coordinates(a, q)
        if coords is None:
            return False
        matrix.append(coords[: len(a)])
    return det(matrix) != 0


def first_outside_completion(
    v: tuple[Poly, Poly, Poly], l: tuple[Poly, Poly]
) -> Poly:
    """The first canonical component of v outside the affine span of l."""
    return next(g for g in v if linalg.affine_coordinates(l, g) is None)


def greedy_simple_strip(
    h: Poly, lo: Poly, hi: Poly, q: Poly
) -> tuple[BiPoly, Poly] | None:
    """The simple-move search by greedy stripping, over a canonical center.

    Strips the top of the residue of h by the other center component once,
    when their degrees agree, and otherwise by the power of the pivot q
    whose degree it is, until neither applies.  Returns (data, residue):
    data is Q(q) + a·other expanded over (y, z) = (hi, lo) through q's
    coordinates, and residue = h + Q(q) + a·other.  None when Q has no
    power of degree 2 or more, or when h + Q(q) or the residue fails to drop
    below h.
    """
    lo_c, hi_c, const = linalg.affine_coordinates((lo, hi), q)
    other = hi if not hi_c else lo
    d_q, d_other = poly.deg(q), poly.deg(other)
    target = dict(h)
    powers: dict[int, Fraction] = {}
    a = Fraction(0)
    while target:
        d_t = poly.deg(target)
        if d_t == d_other and not a:
            a = -poly.top_term(target).coefficient / poly.top_term(other).coefficient
            target = poly.add(target, poly.scale(a, other))
            continue
        k = sum(d_t) // sum(d_q)
        if k >= 1 and tuple(k * e for e in d_q) == d_t:
            qk = naive_pow(q, k)
            c = -poly.top_term(target).coefficient / poly.top_term(qk).coefficient
            powers[k] = powers.get(k, Fraction(0)) + c
            target = poly.add(target, poly.scale(c, qk))
            continue
        break
    if not any(k >= 2 and c for k, c in powers.items()):
        return None
    partial = poly.sub(target, poly.scale(a, other))
    d_h = poly.deg(h)
    if not (poly.mdeg_lt(poly.deg(partial), d_h) and poly.mdeg_lt(poly.deg(target), d_h)):
        return None
    base = {e: c for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 0)), (hi_c, lo_c, const)) if c}
    scratch: Poly = {}
    for k, c in powers.items():
        scratch = poly.add(scratch, poly.scale(c, naive_pow(base, k)))
    if a:
        scratch = poly.add(scratch, {(1, 0, 0) if other is hi else (0, 1, 0): a})
    data = {(e[0], e[1]): c for e, c in scratch.items() if e != (0, 0, 0)}
    return data, target


def tokenize_reference(text: str, line: int = 1, column: int = 1) -> list[Token]:
    """The tokenizer as a loop over characters, classified by ``str``
    predicates.  It raises ValueError on digits that ``str.isdigit`` accepts
    and ``int()`` refuses (``²``, or past ``int()``'s digit limit), and it
    leaves the end-of-input column at a trailing comment's ``#``."""
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
        if c in "+-*^()":
            out.append(Token(c, c, line, start_col))
            i += 1
            column += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    out.append(Token("end", None, line, column))
    return out


class GenericParser(_Parser):
    """The parser with every product through ``poly.mul``, every power
    through ``poly.p_pow`` and every sum through ``poly.add``/``poly.sub``."""

    def sum(self) -> Poly:
        p: Poly = {}
        sign = "+"
        while True:
            while self.peek().kind == "-":
                self.take()
                sign = "+" if sign == "-" else "-"
            q = self.product()
            p = poly.add(p, q) if sign == "+" else poly.sub(p, q)
            if self.peek().kind not in "+-":
                return p
            sign = self.take().kind

    def product(self) -> Poly:
        p = self.power(self.atom())
        while self.peek().kind == "*":
            self.take()
            p = poly.mul(p, self.power(self.atom()))
        return p

    def power(self, base: Poly) -> Poly:
        if self.peek().kind != "^":
            return base
        self.take()
        return poly.p_pow(base, self.exponent())


def parse_poly_generic(
    text: str, variables: Mapping[str, int], line: int = 1, column: int = 1
) -> Poly:
    """``parsing.parse_poly`` through the generic parser."""
    return GenericParser(_tokenize(text, line, column), variables).parse()

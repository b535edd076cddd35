"""Independent reference implementations used to cross-check the library.

Everything here trades speed for obviousness: direct convolution for
products, monomial-by-monomial expansion for substitution, synthetic
division for root orders, a filter over the support for top forms, and
word factors read off their fields.  None of it goes through the packed
multiplication kernel or the factors' own methods.
"""

from __future__ import annotations

from fractions import Fraction

from tame3 import analysis, poly
from tame3.analysis import PolyInY
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


def root_order(phi: PolyInY, g: Poly) -> int:
    """Order of ḡ (the top term of g) as a root of the top component of φ.

    Repeated synthetic division of top_component(φ, g) by (y − ḡ): divide
    while the remainder vanishes.  The claimed equality with
    analysis.multiplicity (derivative iteration) is what the caller tests.
    """
    bar = analysis.top_component(phi, g)
    t = poly.top_term(g)
    gbar: Poly = {t.exponents: t.coefficient}
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
        bar = analysis.y_poly(quot)
    return order


def y_mul(a: PolyInY, b: PolyInY) -> PolyInY:
    """Product of two y-polynomials with Poly coefficients (test scaffolding)."""
    out: PolyInY = {}
    for i, p in a.items():
        for j, q in b.items():
            out[i + j] = poly.add(out.get(i + j, {}), naive_mul(p, q))
    return analysis.y_poly(out)

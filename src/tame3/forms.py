"""Algebraic differential forms with polynomial coefficients, and their degrees.

Only what the degree calculus needs: exterior derivatives of polynomials,
wedge products up to the top power, and the form degree

    deg ω = max over basis components of (deg coefficient + deg basis monomial)

where the basis monomial of dx_{i}∧dx_{j} is x_i·x_j, etc.  The basis order of
two-forms is fixed once and for all as (dx1∧dx2, dx1∧dx3, dx2∧dx3); every sign
in the wedge formulas follows from that declaration.

Key facts the tests pin down (characteristic zero):
  deg dg = deg g for nonzero g;
  deg (ω ∧ ω′) ≤ deg ω + deg ω′;
  deg (g·ω) = deg g + deg ω;
  f1, f2, f3 are algebraically independent iff df1∧df2∧df3 ≠ 0.

``independent`` tries a one-sided residue before any wedge.  It evaluates
the r×r minors of the Jacobian of (f1, …, fr) term by term at one fixed point
modulo the prime 2⁶¹ − 1, from per-variable power tables, building no
polynomial.  When every coefficient is p-integral (no denominator divisible
by the prime), reduction mod p and evaluation are ring maps, so a nonzero
minor at the point proves a nonzero minor, hence df1∧⋯∧dfr ≠ 0.  A zero
residue proves nothing: it falls back to the exact ``wedge_degree``.  The
residue cannot show that a Jacobian is constant, so ``vertices.automorphism``
keeps its exact degree check.

``wedge_degree`` reads deg df1∧⋯∧dfr off two exact facts before building
any wedge:
  an affine change of (f1, …, fr) scales df1∧⋯∧dfr by its nonzero
  determinant, so the degree is read on the good representative (g1, …, gr),
  and the form is zero when none exists;
  deg dg1∧⋯∧dgr = Σ deg gᵢ when the deg gᵢ are linearly independent (the
  equality case of the degree inequality: Shestakov–Umirbaev 2004, Kuroda
  2008): then the top terms alone wedge to a nonzero multiple of x^Σ deg gᵢ.
Otherwise it wedges the packed integer differentials of the representative
and reads the degree off the packed keys, building no Fraction.

The wedge kernels work on packed integer maps (see ``poly``): each form's
three coefficients are cleared over one common denominator, and public
``Poly``s are built only at the end.  ``wedge11`` lays each 1-form out as rows
(monomial, c1, c2, c3) over the union of its coefficient supports and, for
each row of b, packs

    B1 = b2 + b3·2^S,   B2 = b3·2^2S − b1,   B3 = −(b1·2^S + b2·2^2S)

so that one product per row pair, a1·B1 + a2·B2 + a3·B3, adds the three
minors a1b2 − a2b1, a1b3 − a3b1 and a2b3 − a3b2 into fields 0, 1 and 2 of
one integer accumulator per output monomial.  The field width S is derived
from the operands.  Let A be the sum of |c| over every cleared coefficient
of a, and B the same for b.  A row pair adds at most |aᵢbⱼ| + |aⱼbᵢ| ≤
(|a1| + |a2| + |a3|)(|b1| + |b2| + |b3|) to a field, and summed over all row
pairs that is A·B; so every field's final sum lies in [−A·B, A·B].  With
S = bit_length(A·B) + 1, A·B < 2^(S−1): each field lies strictly inside
(−2^(S−1), 2^(S−1)), the range in which a signed S-bit field decodes
uniquely, lowest field first with its borrow taken out of the next.  The
accumulator is an exact Python int, so only the final sums must fit, not
the partial ones.
``wedge21`` adds t12·o3 − t13·o2 + t23·o1 in the single accumulator of
``poly._sum_of_products``.  Both kernels raise DegreeOverflow where ``mul``
would on any of the products they stand for.
"""

from __future__ import annotations

from dataclasses import dataclass

from tame3 import linalg, poly
from tame3.errors import DegenerateTuple
from tame3.poly import MultiDegree, Poly

# Degrees of the basis monomials x_i, x_i x_j, x1 x2 x3.
_ONE_BASIS_DEG = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_TWO_BASIS_DEG = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
_THREE_BASIS_DEG = (1, 1, 1)

# The residue field and point of ``independent``'s one-sided fast path:
# fixed, so every verdict and every output is deterministic.
_P = (1 << 61) - 1
_POINT = (1_234_567_891_011, 987_654_321_123, 555_555_555_557)
_INV_POINT = tuple(pow(x, -1, _P) for x in _POINT)


@dataclass(frozen=True)
class OneForm:
    """a·dx1 + b·dx2 + c·dx3 with polynomial coefficients (a, b, c)."""

    coefficients: tuple[Poly, Poly, Poly]


@dataclass(frozen=True)
class TwoForm:
    """a·dx1∧dx2 + b·dx1∧dx3 + c·dx2∧dx3 with coefficients (a, b, c)."""

    coefficients: tuple[Poly, Poly, Poly]


@dataclass(frozen=True)
class ThreeForm:
    """a·dx1∧dx2∧dx3."""

    coefficient: Poly


def zero_one_form() -> OneForm:
    """The zero 1-form."""
    return OneForm(({}, {}, {}))


def is_zero_form(w: OneForm | TwoForm | ThreeForm) -> bool:
    """True iff every coefficient vanishes."""
    if isinstance(w, ThreeForm):
        return poly.is_zero(w.coefficient)
    return all(poly.is_zero(c) for c in w.coefficients)


def differential(p: Poly) -> OneForm:
    """The exterior derivative dp = ∂p/∂x1·dx1 + ∂p/∂x2·dx2 + ∂p/∂x3·dx3."""
    return OneForm(
        (poly.derivative(p, 1), poly.derivative(p, 2), poly.derivative(p, 3))
    )


def _rows(
    c1: dict[int, int], c2: dict[int, int], c3: dict[int, int]
) -> list[tuple[int, int, int, int]]:
    """(monomial, c1, c2, c3) over the union of the packed coefficient supports."""
    return [(k, c1.get(k, 0), c2.get(k, 0), c3.get(k, 0)) for k in {**c1, **c2, **c3}]


_OFF_DIAGONAL = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))


def _minors(
    a: list[dict[int, int]], b: list[dict[int, int]]
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """a1b2 − a2b1, a1b3 − a3b1, a2b3 − a3b2 of two packed 1-forms, in one pass."""
    ta = [poly._top_total(c) if c else 0 for c in a]
    tb = [poly._top_total(c) if c else 0 for c in b]
    poly._check_cap(
        max((ta[i] + tb[j] for i, j in _OFF_DIAGONAL if a[i] and b[j]), default=0)
    )
    bound = sum(abs(c) for m in a for c in m.values()) * sum(
        abs(c) for m in b for c in m.values()
    )
    s = bound.bit_length() + 1
    s2 = 2 * s
    brows = [
        (kb, b2 + (b3 << s), (b3 << s2) - b1, -((b1 << s) + (b2 << s2)))
        for kb, b1, b2, b3 in _rows(*b)
    ]
    acc: dict[int, int] = {}
    get = acc.get
    for ka, a1, a2, a3 in _rows(*a):
        for kb, p1, p2, p3 in brows:
            e = ka + kb
            acc[e] = get(e, 0) + a1 * p1 + a2 * p2 + a3 * p3
    half, mask = 1 << (s - 1), (1 << s) - 1
    m12: dict[int, int] = {}
    m13: dict[int, int] = {}
    m23: dict[int, int] = {}
    for k, v in acc.items():
        f = ((v + half) & mask) - half
        if f:
            m12[k] = f
        v = (v - f) >> s
        f = ((v + half) & mask) - half
        if f:
            m13[k] = f
        v = (v - f) >> s
        if v:
            m23[k] = v
    return m12, m13, m23


def _top_coefficient(t: list[dict[int, int]], o: list[dict[int, int]]) -> dict[int, int]:
    """t12·o3 − t13·o2 + t23·o1 of a packed 2-form and 1-form (zeros kept)."""
    (t12, t13, t23), (o1, o2, o3) = t, o
    minus_o2 = {k: -c for k, c in o2.items()}
    return poly._sum_of_products(((t12, o3), (t13, minus_o2), (t23, o1)))


def wedge11(a: OneForm, b: OneForm) -> TwoForm:
    """Wedge product of two 1-forms (antisymmetric: wedge11(a, a) = 0)."""
    pa, den_a = poly._cleared(*a.coefficients)
    pb, den_b = poly._cleared(*b.coefficients)
    den = den_a * den_b
    return TwoForm(tuple(poly._unpacked(m, den) for m in _minors(pa, pb)))


def wedge21(t: TwoForm, o: OneForm) -> ThreeForm:
    """Wedge product of a 2-form and a 1-form into the top exterior power."""
    # (t12 dx1∧dx2 + t13 dx1∧dx3 + t23 dx2∧dx3) ∧ (o1 dx1 + o2 dx2 + o3 dx3)
    pt, den_t = poly._cleared(*t.coefficients)
    po, den_o = poly._cleared(*o.coefficients)
    return ThreeForm(poly._unpacked(_top_coefficient(pt, po), den_t * den_o))


def scale_form(g: Poly, w: OneForm) -> OneForm:
    """The 1-form g·ω (module structure over the polynomial ring)."""
    c1, c2, c3 = w.coefficients
    return OneForm((poly.mul(g, c1), poly.mul(g, c2), poly.mul(g, c3)))


def deg_form(w: OneForm | TwoForm | ThreeForm) -> MultiDegree:
    """Degree of a form; None (−∞) for zero forms."""
    if isinstance(w, ThreeForm):
        return poly.mdeg_add(poly.deg(w.coefficient), _THREE_BASIS_DEG)
    basis = _ONE_BASIS_DEG if isinstance(w, OneForm) else _TWO_BASIS_DEG
    return poly.mdeg_max(
        *(poly.mdeg_add(poly.deg(c), b) for c, b in zip(w.coefficients, basis))
    )


def wedge_degree(*fs: Poly) -> MultiDegree | None:
    """deg df1∧⋯∧dfr for 1–3 polynomials; None when the form is zero."""
    if not 1 <= len(fs) <= 3:
        raise ValueError(f"wedge_degree takes 1-3 polynomials, got {len(fs)}")
    try:
        gs = linalg.good_representative(fs)
    except DegenerateTuple:
        return None
    degs = [poly.deg(g) for g in gs]
    if len(degs) == 2:
        # linearly independent: some 2×2 minor of the two degrees is nonzero
        (a1, a2, a3), (b1, b2, b3) = degs
        free = (a1 * b2, a1 * b3, a2 * b3) != (a2 * b1, a3 * b1, a3 * b2)
    else:
        free = len(degs) == 1 or linalg.det3(degs) != 0
    if free:
        return tuple(map(sum, zip(*degs)))
    # pair the two shortest: the minors cost about |a|·|b| row pairs, and
    # their result, which the 3-form multiplies by dc, is about that long at
    # most.  A positive common denominator does not move the degree.
    a, b, *c = poly._cleared(*sorted(gs, key=len))[0]
    w = _minors(poly._partials(a), poly._partials(b))
    if not c:
        return poly.mdeg_max(
            *(poly.mdeg_add(poly._packed_deg(m), e) for m, e in zip(w, _TWO_BASIS_DEG))
        )
    top = _top_coefficient(w, poly._partials(c[0]))
    return poly.mdeg_add(poly._packed_deg(top), _THREE_BASIS_DEG)


def _jacobian_residue(fs: tuple[Poly, ...]) -> list[list[int]] | None:
    """The Jacobian rows (∂f/∂x1, ∂f/∂x2, ∂f/∂x3) at _POINT mod _P.

    Term by term: ∂f/∂x_s(pt) = Σ e_s·c·pt^e / pt_s, from per-variable
    power tables.  None when a coefficient's denominator is ≡ 0 mod _P.
    """
    powers: list[dict[int, int]] = [{}, {}, {}]
    inverses: dict[int, int] = {1: 1}
    rows = []
    for f in fs:
        d1 = d2 = d3 = 0
        for (a, b, c), q in f.items():
            den = q.denominator
            inv = inverses.get(den)
            if inv is None:
                if den % _P == 0:
                    return None
                inv = inverses[den] = pow(den, -1, _P)
            t = q.numerator * inv
            for x, k, table in zip(_POINT, (a, b, c), powers):
                if k:
                    xk = table.get(k)
                    if xk is None:
                        xk = table[k] = pow(x, k, _P)
                    t = t * xk % _P
            d1 += a * t
            d2 += b * t
            d3 += c * t
        rows.append([d * inv_x % _P for d, inv_x in zip((d1, d2, d3), _INV_POINT)])
    return rows


def _residue_minor_nonzero(fs: tuple[Poly, ...]) -> bool:
    """True when some r×r Jacobian minor of fs is nonzero at _POINT mod _P."""
    rows = _jacobian_residue(fs)
    if rows is None:
        return False
    if len(rows) == 1:
        return any(rows[0])
    if len(rows) == 2:
        (a1, a2, a3), (b1, b2, b3) = rows
        minors = (a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2)
        return any(m % _P for m in minors)
    return linalg.det3(rows) % _P != 0


def independent(*fs: Poly) -> bool:
    """Algebraic independence of 1–3 polynomials via wedge nonvanishing.

    In characteristic zero, f1, …, fr are algebraically independent iff
    df1 ∧ ⋯ ∧ dfr ≠ 0, i.e. iff some r×r minor of their Jacobian is a
    nonzero polynomial.  With p-integral coefficients, a minor that is
    nonzero at _POINT mod _P = 2⁶¹ − 1 is a nonzero minor, so such a residue
    returns True.  A zero residue (the minor may vanish at the point only),
    a denominator ≡ 0 mod _P and any length other than 1–3 fall back to the
    exact ``wedge_degree(*fs) is not None``.
    """
    if 1 <= len(fs) <= 3 and _residue_minor_nonzero(fs):
        return True
    return wedge_degree(*fs) is not None

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

``wedge_degree`` reads deg df1∧⋯∧dfr off two exact facts before building
any wedge:
  an affine change of (f1, …, fr) scales df1∧⋯∧dfr by its nonzero
  determinant, so the degree is read on the good representative (g1, …, gr),
  and the form is zero when none exists;
  deg dg1∧⋯∧dgr = Σ deg gᵢ when the deg gᵢ are linearly independent (the
  equality case of the degree inequality: Shestakov–Umirbaev 2004, Kuroda
  2008): then the top terms alone wedge to a nonzero multiple of x^Σ deg gᵢ.
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


def wedge11(a: OneForm, b: OneForm) -> TwoForm:
    """Wedge product of two 1-forms (antisymmetric: wedge11(a, a) = 0)."""
    a1, a2, a3 = a.coefficients
    b1, b2, b3 = b.coefficients
    return TwoForm((
        poly.sub(poly.mul(a1, b2), poly.mul(a2, b1)),
        poly.sub(poly.mul(a1, b3), poly.mul(a3, b1)),
        poly.sub(poly.mul(a2, b3), poly.mul(a3, b2)),
    ))


def wedge21(t: TwoForm, o: OneForm) -> ThreeForm:
    """Wedge product of a 2-form and a 1-form into the top exterior power."""
    t12, t13, t23 = t.coefficients
    o1, o2, o3 = o.coefficients
    # (t12 dx1∧dx2 + t13 dx1∧dx3 + t23 dx2∧dx3) ∧ (o1 dx1 + o2 dx2 + o3 dx3)
    coeff = poly.add(
        poly.sub(poly.mul(t12, o3), poly.mul(t13, o2)), poly.mul(t23, o1)
    )
    return ThreeForm(coeff)


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
    # pair the two shortest: wedge11 costs about |a|·|b| term pairs, and its
    # result, which wedge21 multiplies by dc, is about that long at most
    a, b, *c = sorted(gs, key=len)
    w = wedge11(differential(a), differential(b))
    return deg_form(wedge21(w, differential(c[0])) if c else w)


def independent(*fs: Poly) -> bool:
    """Algebraic independence of 1–3 polynomials via wedge nonvanishing.

    In characteristic zero, f1, …, fr are algebraically independent iff
    df1 ∧ ⋯ ∧ dfr ≠ 0.
    """
    return wedge_degree(*fs) is not None

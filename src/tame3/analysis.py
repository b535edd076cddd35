"""Virtual degrees, multiplicity, and the core degree inequalities.

Working types (plain dicts, like Poly):
  PolyInY = dict[int, Poly]                 # φ = Σ Pᵢ·yⁱ, nonzero Pᵢ only
  BiPoly  = dict[tuple[int, int], Fraction] # φ = Σ c_{ij}·yⁱzʲ, nonzero c only

The virtual degree of φ = Σ Pᵢ·yⁱ with respect to g is
max_i (deg Pᵢ + i·deg g): the degree φ(g) would have if no top terms
cancelled.  The strict-drop case deg_virt > deg is what the whole reduction
theory revolves around; the multiplicity m(φ, g) measures how far the drop can
go, and the Parachute Inequality bounds it:

    deg φ(f1)  ≥  deg_virt φ(f1) − m(φ,f1)·(deg ω + deg f1 − deg df1∧ω)

with ω = df2 (two independent polynomials) or df2∧df3 (three).  The right-hand
side is an extended degree in ℤ³, compared graded-lex like everything else.

A strict virtual drop for a pair forces commensurable degrees
(pq_resonance): coprime p ≤ q with p·deg f1 = q·deg f2, both multiples of a
common δ ∈ ℕ³.  The ℕ-membership helpers for resonance tests live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from tame3 import forms, poly
from tame3.errors import DependentInputs, EmptyInput, TheoremViolated, ZeroPolynomial
from tame3.poly import MultiDegree, Poly

PolyInY = dict[int, Poly]
BiPoly = dict[tuple[int, int], Fraction]


# ---------------------------------------------------------------------------
# Polynomials in y (coefficients in k[x1,x2,x3]) and in (y, z)
# ---------------------------------------------------------------------------

def y_poly(pairs: dict[int, Poly]) -> PolyInY:
    """Canonicalize a y-polynomial: drop zero coefficient polynomials."""
    return {i: p for i, p in pairs.items() if p}


def eval_y(phi: PolyInY, g: Poly) -> Poly:
    """Evaluate φ(g) by Horner over the sparse y-exponents."""
    if not phi:
        return {}
    exps = sorted(phi, reverse=True)
    acc = dict(phi[exps[0]])
    prev = exps[0]
    for i in exps[1:]:
        acc = poly.add(poly.mul(acc, poly.p_pow(g, prev - i)), phi[i])
        prev = i
    if prev:
        acc = poly.mul(acc, poly.p_pow(g, prev))
    return acc


def y_derivative(phi: PolyInY) -> PolyInY:
    """∂φ/∂y = Σ i·Pᵢ·y^(i−1)."""
    return {i - 1: poly.scale(i, p) for i, p in phi.items() if i}


def curry_y(phi: BiPoly, h: Poly) -> PolyInY:
    """View φ(y, z) as a y-polynomial with coefficients Pᵢ = Σ_j c_{ij}·hʲ."""
    out: PolyInY = {}
    for (i, j), c in phi.items():
        term = poly.scale(c, poly.p_pow(h, j))
        out[i] = poly.add(out.get(i, {}), term)
    return y_poly(out)


def eval_yz(phi: BiPoly, g: Poly, h: Poly) -> Poly:
    """Evaluate φ(g, h)."""
    return eval_y(curry_y(phi, h), g)


def bipoly_is_affine(phi: BiPoly) -> bool:
    """True iff φ(y, z) has total degree ≤ 1 in (y, z)."""
    return all(i + j <= 1 for i, j in phi)


# ---------------------------------------------------------------------------
# Virtual degree, top component, multiplicity
# ---------------------------------------------------------------------------

def virtual_degree_y(phi: PolyInY, g: Poly) -> MultiDegree:
    """max_i (deg Pᵢ + i·deg g) — the no-cancellation degree of φ(g)."""
    if not phi:
        raise EmptyInput("virtual degree of the zero polynomial")
    if not g:
        raise ZeroPolynomial("virtual degree with respect to g = 0")
    dg = poly.deg(g)
    return poly.mdeg_max(
        *(
            poly.mdeg_add(poly.deg(p), poly.mdeg_scale(i, dg))
            for i, p in phi.items()
        )
    )


def virtual_degree_yz(phi: BiPoly, g: Poly, h: Poly) -> MultiDegree:
    """max over the support of φ of (i·deg g + j·deg h).

    Agrees with virtual_degree_y on the curried form: the two notions of
    virtual degree coincide for coefficients free of cancellation in h-powers.
    """
    if not phi:
        raise EmptyInput("virtual degree of the zero polynomial")
    if not g or not h:
        raise ZeroPolynomial("virtual degree with respect to a zero polynomial")
    dg, dh = poly.deg(g), poly.deg(h)
    return poly.mdeg_max(
        *(
            poly.mdeg_add(poly.mdeg_scale(i, dg), poly.mdeg_scale(j, dh))
            for i, j in phi
        )
    )


def top_component(phi: PolyInY, g: Poly) -> PolyInY:
    """Σ (top term of Pᵢ)·yⁱ over the indices attaining the virtual degree.

    Substituting the top term ḡ for y in the result captures exactly the
    candidate top terms of φ(g); φ(g) drops below the virtual degree iff that
    substitution cancels, i.e. iff (y − ḡ) divides the top component.
    """
    vd = virtual_degree_y(phi, g)
    dg = poly.deg(g)
    out: PolyInY = {}
    for i, p in phi.items():
        if poly.mdeg_add(poly.deg(p), poly.mdeg_scale(i, dg)) == vd:
            t = poly.top_term(p)
            out[i] = {t.exponents: t.coefficient}
    return out


def multiplicity(phi: PolyInY, g: Poly) -> int:
    """The smallest m with deg_virt φ⁽ᵐ⁾(g) = deg φ⁽ᵐ⁾(g) (y-derivatives).

    Equals the order of ḡ as a root of the top component; the derivative
    iteration terminates because each step lowers the y-degree, and a
    y-constant φ has no cancellation at all.
    """
    if not phi:
        raise EmptyInput("multiplicity of the zero polynomial")
    if not g or poly.deg(g) == (0, 0, 0):
        raise ZeroPolynomial("multiplicity with respect to a constant")
    m = 0
    current = phi
    while virtual_degree_y(current, g) != poly.deg(eval_y(current, g)):
        current = y_derivative(current)
        m += 1
    return m


# ---------------------------------------------------------------------------
# Parachute Inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParachuteReport:
    """Both sides of the Parachute Inequality, evaluated exactly.

    ``rhs`` is an extended degree (entries may be negative) — it is only ever
    compared, via the graded-lex order on ℤ³.
    """

    lhs: MultiDegree
    rhs: MultiDegree
    multiplicity: int
    virtual: MultiDegree

    @property
    def holds(self) -> bool:
        return poly.mdeg_ge(self.lhs, self.rhs)


def parachute_check(f: list[Poly], phi: PolyInY) -> ParachuteReport:
    """Evaluate the Parachute Inequality for f = (f1, …, fr), r = 2 or 3.

    φ is a y-polynomial whose coefficients the caller guarantees to lie in
    k[f2, …, fr]; y stands for f1.  The inequality is a theorem, so a report
    with holds = False is unreachable: it raises TheoremViolated instead of
    returning.

    df1∧ω is df1∧df2 (r = 2) or df2∧df3∧df1 = df1∧df2∧df3 (r = 3: a cyclic
    permutation of three 1-forms keeps the sign), so its vanishing doubles
    as the independence test.
    """
    if len(f) not in (2, 3):
        raise ValueError(f"parachute_check takes 2 or 3 polynomials, got {len(f)}")
    if not phi:
        raise EmptyInput("parachute_check with φ = 0")
    f1 = f[0]
    top = forms.wedge_degree(*f)
    if top is None:
        raise DependentInputs("components are algebraically dependent")
    virtual = virtual_degree_y(phi, f1)
    lhs = poly.deg(eval_y(phi, f1))
    # the first step of multiplicity(phi, f1), reusing the evaluation above
    m = 0 if lhs == virtual else 1 + multiplicity(y_derivative(phi), f1)
    penalty = poly.mdeg_sub(
        poly.mdeg_add(forms.wedge_degree(*f[1:]), poly.deg(f1)), top
    )
    rhs = poly.mdeg_sub(virtual, poly.mdeg_scale(m, penalty))
    report = ParachuteReport(lhs=lhs, rhs=rhs, multiplicity=m, virtual=virtual)
    if not report.holds:
        raise TheoremViolated(f"Parachute Inequality violated: {report}")
    return report


# ---------------------------------------------------------------------------
# Principle of Two Maxima
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoMaximaReport:
    """The three quantities deg fᵢ + deg dfⱼ∧dfₖ and how often the max recurs."""

    quantities: tuple[MultiDegree, MultiDegree, MultiDegree]
    maximum: MultiDegree
    attained: int

    @property
    def ok(self) -> bool:
        return self.attained >= 2


def two_maxima_check(f) -> TwoMaximaReport:
    """Check that the maximum of deg fᵢ + deg dfⱼ∧dfₖ is attained twice.

    Accepts an Automorphism or a plain component triple.  The principle holds
    for every automorphism of affine 3-space; callers pass witnessed-tame
    maps, so a failing check raises TheoremViolated (it would be an
    implementation bug).
    """
    f1, f2, f3 = getattr(f, "components", f)
    # one pair at a time: canonicalizing the triple would re-pair them
    quantities = (
        poly.mdeg_add(poly.deg(f1), forms.wedge_degree(f2, f3)),
        poly.mdeg_add(poly.deg(f2), forms.wedge_degree(f1, f3)),
        poly.mdeg_add(poly.deg(f3), forms.wedge_degree(f1, f2)),
    )
    maximum = poly.mdeg_max(*quantities)
    attained = sum(1 for q in quantities if q == maximum)
    report = TwoMaximaReport(quantities=quantities, maximum=maximum, attained=attained)
    if not report.ok:
        raise TheoremViolated(f"Principle of Two Maxima violated: {report}")
    return report


# ---------------------------------------------------------------------------
# Degree resonance
# ---------------------------------------------------------------------------

def pq_resonance(
    d1: tuple[int, int, int], d2: tuple[int, int, int]
) -> tuple[int, int, tuple[int, int, int]] | None:
    """Commensurability witness for two finite degrees with d1 ≥ d2.

    Returns the unique coprime (p, q) with p ≤ q and p·d1 = q·d2, together
    with the δ ∈ ℕ³ such that d1 = q·δ and d2 = p·δ; None when the degrees
    are ℤ-independent (or δ fails to be integral).  A strict virtual drop of
    some φ(f1, f2) is only possible when this returns a witness.
    """
    t1, t2 = sum(d1), sum(d2)
    if t1 == 0 or t2 == 0:
        return None
    g = gcd(t1, t2)
    p, q = t2 // g, t1 // g
    if any(p * a != q * b for a, b in zip(d1, d2)):
        return None
    if any(a % q for a in d1):
        return None
    delta = (d1[0] // q, d1[1] // q, d1[2] // q)
    return (p, q, delta)


def nat_multiple(base: tuple[int, int, int], target: tuple[int, int, int]) -> int | None:
    """The k ∈ ℕ with target = k·base, if any."""
    tb, tt = sum(base), sum(target)
    if tb == 0:
        return 0 if tt == 0 else None
    if tt % tb:
        return None
    k = tt // tb
    return k if all(k * b == t for b, t in zip(base, target)) else None


def nat_combination(
    target: tuple[int, int, int],
    d1: tuple[int, int, int],
    d2: tuple[int, int, int],
) -> tuple[int, int] | None:
    """A pair (m, n) ∈ ℕ² with m·d1 + n·d2 = target, if any.

    d1 and d2 must have positive total degree, which bounds the search:
    only pairs with m·|d1| + n·|d2| = |target| (total degrees) can work.
    """
    t1, t2, tt = sum(d1), sum(d2), sum(target)
    if t1 <= 0 or t2 <= 0:
        raise ValueError("nat_combination requires positive total degrees")
    for m in range(tt // t1 + 1):
        rest = tt - m * t1
        if rest % t2:
            continue
        n = rest // t2
        if all(m * a + n * b == t for a, b, t in zip(d1, d2, target)):
            return (m, n)
    return None

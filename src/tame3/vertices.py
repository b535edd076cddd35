"""Vertices of the simplicial complex acted on by the tame group.

A type-r vertex (r = 1, 2, 3) is an r-tuple of polynomial components modulo
composition by an affine automorphism on the range: [f1, f2, f3] for type 3
("Vertex3"), pairs for type 2 ("Line"), single components for type 1
("Point").  Two tuples give the same vertex iff an invertible affine change
of the *values* maps one to the other — decided here by affine-span
membership alone, never by comparing representatives syntactically.  No
invertibility check is needed: canonical components have distinct tops and
no constants, so they are independent modulo constants, and a singular
change of values would send some combination of them to a constant.
Incidence (a point on a line, a line in a vertex) is the same membership.
Canonical representatives and membership are implemented in ``linalg``
(``good_representative``, ``affine_coordinates``): the representative is in
echelon form, so membership cancels top terms and solves no linear system.

Every stored representative is canonical: constants dropped, components
sorted by strictly increasing degree, top terms monic, colliding top degrees
eliminated greedily.  The degrees of the canonical components are exactly the
stratified flag degrees (δ1 < δ2 < ⋯); their sum is the vertex degree, which
is ≥ (1,1,1) with equality only at the identity vertex.

Also here: tame words (sequences of affine and elementary factors), their
evaluation into witnessed automorphisms, resonance tests on lines, the
minimal line / minimal vertex of a type-3 vertex, neighbors along a center
line, and the pivotal-form check underlying K-reduction detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tame3 import analysis, forms, linalg, poly
from tame3.analysis import BiPoly
from tame3.errors import (
    AffineP,
    DegenerateTuple,
    DegreeOverflow,
    DependentInputs,
    NotAnAutomorphism,
    NotIncident,
    SingularAffine,
    WitnessMismatch,
    ZeroPolynomial,
)
from tame3.linalg import affine_coordinates, good_representative
from tame3.poly import MultiDegree, Poly

_CONST = (0, 0, 0)


# ---------------------------------------------------------------------------
# Tame words and automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Affine:
    """x ↦ M·x + b with an invertible 3×3 rational matrix M."""

    matrix: tuple[tuple[Fraction, ...], ...]
    shift: tuple[Fraction, Fraction, Fraction]

    def after(self, comps: tuple[Poly, Poly, Poly]) -> tuple[Poly, Poly, Poly]:
        """self ∘ comps: row r is b_r + Σ_j M_rj·comps_j, with no product."""
        out = []
        for row, b in zip(self.matrix, self.shift):
            p = poly.const(b)
            for a, c in zip(row, comps):
                if a:
                    p = poly.add(p, poly.scale(a, c))
            out.append(p)
        return tuple(out)

    def components(self) -> tuple[Poly, Poly, Poly]:
        return self.after((poly.variable(1), poly.variable(2), poly.variable(3)))


@dataclass(frozen=True)
class Elementary:
    """x_index ↦ x_index + P(the other two variables); the rest fixed."""

    index: int
    p: Poly

    def after(self, comps: tuple[Poly, Poly, Poly]) -> tuple[Poly, Poly, Poly]:
        """self ∘ comps: comps_index moves by P(comps), the others are kept."""
        out = list(comps)
        i = self.index - 1
        out[i] = poly.add(comps[i], poly.substitute(self.p, comps))
        return tuple(out)

    def components(self) -> tuple[Poly, Poly, Poly]:
        return self.after((poly.variable(1), poly.variable(2), poly.variable(3)))


@dataclass(frozen=True)
class TameWord:
    """A composition of generators, leftmost outermost: [w1, w2] means w1∘w2."""

    factors: tuple[Affine | Elementary, ...]


@dataclass(frozen=True)
class Automorphism:
    """An ordered component triple, optionally with a tameness witness."""

    components: tuple[Poly, Poly, Poly]
    witness: TameWord | None = None


def affine(matrix, shift) -> Affine:
    """Validated affine factor (rational entries, invertible matrix)."""
    m = tuple(tuple(Fraction(a) for a in row) for row in matrix)
    b = tuple(Fraction(x) for x in shift)
    if len(m) != 3 or any(len(row) != 3 for row in m) or len(b) != 3:
        raise ValueError("affine factor needs a 3×3 matrix and a length-3 shift")
    if linalg.det3(m) == 0:
        raise SingularAffine(f"affine matrix {m} is singular")
    return Affine(m, b)


def elementary(index: int, p: Poly) -> Elementary:
    """Validated elementary factor: p must not involve x_index."""
    if index not in (1, 2, 3):
        raise ValueError(f"elementary index must be 1, 2 or 3, got {index}")
    if any(e[index - 1] for e in p):
        raise ValueError(f"elementary polynomial for x{index} must not involve x{index}")
    return Elementary(index, dict(p))


def automorphism(
    components: tuple[Poly, Poly, Poly], witness: TameWord | None = None
) -> Automorphism:
    """Validated automorphism: constant nonzero Jacobian, witness consistent.

    The Jacobian, the coefficient of df1∧df2∧df3, vanishes iff the components
    are algebraically dependent and is a nonzero constant iff deg df1∧df2∧df3
    is deg dx1∧dx2∧dx3 = (1,1,1).

    A declared word whose factors all pass a cheap re-check (an affine matrix
    with det3 ≠ 0; an elementary index in 1–3 whose P does not involve
    x_index) has Jacobian the product of its affine determinants, a nonzero
    constant.  So when such a word evaluates exactly to the components, the
    Jacobian is proved and no wedge is built.  Otherwise the exact check runs
    first, and the errors come in this order: DependentInputs,
    NotAnAutomorphism, then what evaluating the word raises (SingularAffine,
    DegreeOverflow), then WitnessMismatch.
    """
    components = tuple(dict(c) for c in components)
    evaluated = None
    if witness is not None and all(map(_rechecked, witness.factors)):
        try:
            evaluated = eval_word(witness).components
        except DegreeOverflow:  # raised again below, after the exact check
            pass
        if evaluated == components:
            return Automorphism(components, witness)
    top = forms.wedge_degree(*components)
    if top is None:
        raise DependentInputs("components are algebraically dependent")
    if top != (1, 1, 1):
        raise NotAnAutomorphism("the Jacobian df1∧df2∧df3 is not a constant")
    if witness is not None:
        if evaluated is None:
            evaluated = eval_word(witness).components
        if evaluated != components:
            raise WitnessMismatch("declared word does not evaluate to the components")
    return Automorphism(components, witness)


def _rechecked(factor: Affine | Elementary) -> bool:
    """True when the factor passes the checks of ``affine``/``elementary``
    that its Jacobian rests on; the bare dataclasses skip them."""
    if isinstance(factor, Affine):
        return linalg.det3(factor.matrix) != 0
    return (
        isinstance(factor, Elementary)
        and factor.index in (1, 2, 3)
        and not any(e[factor.index - 1] for e in factor.p)
    )


def eval_word(w: TameWord) -> Automorphism:
    """Evaluate a tame word, innermost factor first, into a witnessed automorphism.

    Each factor goes after the composite of those to its right, so an affine
    one only combines components and an elementary one moves one; outermost
    first would substitute every factor into all three components.  Affine
    factors are checked left to right first: SingularAffine names the leftmost.
    """
    for factor in w.factors:
        if isinstance(factor, Affine) and linalg.det3(factor.matrix) == 0:
            raise SingularAffine(f"affine matrix {factor.matrix} is singular")
    comps = (poly.variable(1), poly.variable(2), poly.variable(3))
    for factor in reversed(w.factors):
        comps = factor.after(comps)
    return Automorphism(comps, w)


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """f ∘ g; the witness is the concatenation when both are witnessed."""
    comps = tuple(poly.substitute(c, g.components) for c in f.components)
    witness = None
    if f.witness is not None and g.witness is not None:
        witness = TameWord(f.witness.factors + g.witness.factors)
    return Automorphism(comps, witness)


def identity_automorphism() -> Automorphism:
    """The identity map, witnessed by the empty word."""
    return eval_word(TameWord(()))


# ---------------------------------------------------------------------------
# Stratified degrees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexDegrees:
    """Stratified flag degrees δ1 < ⋯ < δr, their sum, and the top one."""

    stratified: tuple[MultiDegree, ...]
    total: MultiDegree
    top: MultiDegree


def stratified_degrees(components: tuple[Poly, ...]) -> VertexDegrees:
    """Flag degrees of the affine span of the components.

    ``vertex_degrees`` of the good representative, wrapped without the
    independence check that ``vertex3`` makes: it is only read.
    """
    return vertex_degrees(Vertex3(good_representative(components)))


# ---------------------------------------------------------------------------
# Vertices of types 1, 2, 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Vertex3:
    """Type-3 vertex; representative canonical, equality by affine orbit."""

    representative: tuple[Poly, Poly, Poly]

    def __eq__(self, other):
        if not isinstance(other, Vertex3):
            return NotImplemented
        return vertex_equal(self, other)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Line:
    """Type-2 vertex (pair of components); equality by affine orbit."""

    representative: tuple[Poly, Poly]

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return line_equal(self, other)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Point:
    """Type-1 vertex (single component); equality by affine orbit."""

    representative: Poly

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return point_equal(self, other)

    __hash__ = None


def vertex3(components: tuple[Poly, Poly, Poly]) -> Vertex3:
    """The type-3 vertex spanned by three independent components."""
    rep = good_representative(components)
    if not forms.independent(*rep):
        raise DependentInputs("components are algebraically dependent")
    return Vertex3(rep)


def line(components: tuple[Poly, Poly]) -> Line:
    """The type-2 vertex spanned by two independent components."""
    rep = good_representative(components)
    if not forms.independent(*rep):
        raise DependentInputs("components are algebraically dependent")
    return Line(rep)


def point(component: Poly) -> Point:
    """The type-1 vertex of a single non-constant component."""
    (rep,) = good_representative((component,))
    return Point(rep)


def identity_vertex() -> Vertex3:
    """The vertex [id] = [x1, x2, x3]."""
    return vertex3((poly.variable(1), poly.variable(2), poly.variable(3)))


def vertex_degrees(v: Vertex3 | Line) -> VertexDegrees:
    """Stratified degrees of a vertex (already canonical: a direct read)."""
    strata = tuple(poly.deg(p) for p in v.representative)
    total = strata[0]
    for d in strata[1:]:
        total = poly.mdeg_add(total, d)
    return VertexDegrees(stratified=strata, total=total, top=strata[-1])


def is_identity(v: Vertex3) -> bool:
    """True iff v = [id]; equivalently deg v = (1,1,1), the global minimum."""
    return vertex_degrees(v).total == (1, 1, 1)


# ---------------------------------------------------------------------------
# Affine-orbit equality and incidence
# ---------------------------------------------------------------------------

def _contains(a: tuple[Poly, ...], b: tuple[Poly, ...]) -> bool:
    """True iff every component of b lies in the affine span of a.

    a is canonical, so each membership cancels top terms.  For a canonical
    b as long as a, this is orbit equality (see the module docstring).
    """
    return all(affine_coordinates(a, q) is not None for q in b)


def vertex_equal(a: Vertex3, b: Vertex3) -> bool:
    """True iff some affine map sends a's representative to b's."""
    return _contains(a.representative, b.representative)


def line_equal(a: Line, b: Line) -> bool:
    """Affine-orbit equality for type-2 vertices."""
    return _contains(a.representative, b.representative)


def point_equal(a: Point, b: Point) -> bool:
    """Affine-orbit equality for type-1 vertices: q = λ·p + μ, λ ≠ 0."""
    return _contains((a.representative,), (b.representative,))


def line_in_vertex(l: Line, v: Vertex3) -> bool:
    """True iff l is a line of v (its span sits inside v's affine span)."""
    return _contains(v.representative, l.representative)


def point_in_line(p: Point, l: Line) -> bool:
    """True iff p is a point of l."""
    return _contains(l.representative, (p.representative,))


def lines_of(v: Vertex3) -> tuple[Line, Line, Line]:
    """The canonical triangle of v: the three pairs of canonical components.

    Ordered by ascending 2-degree: the minimal line first, then the lines
    through the top component.  Every line of v equals one of these three
    only in the degenerate sense of the triangle; arbitrary lines of v form
    a projective plane, of which these are the reduction search's probes.

    Two components of a canonical independent triple are a canonical
    independent pair, so the lines are built without re-checking either.
    """
    g1, g2, g3 = v.representative
    return (Line((g1, g2)), Line((g1, g3)), Line((g2, g3)))


def minimal_line(v: Vertex3) -> Line:
    """The unique line of v with the two lowest stratified degrees."""
    g1, g2, _ = v.representative
    return Line((g1, g2))


def minimal_vertex(v: Vertex3 | Line) -> Point:
    """The unique point of v realizing the lowest stratified degree."""
    return point(v.representative[0])


# ---------------------------------------------------------------------------
# Line attributes and resonance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineAttributes:
    """The differential degree d and the delta degree Δ of a line.

    d = deg df1∧df2 is representative-independent (a GL2 change multiplies
    the wedge by its determinant); Δ = deg f1 − deg f2 + d is computed on the
    good representative with deg f1 > deg f2, and always exceeds d.
    """

    d: MultiDegree
    delta: MultiDegree


def line_attributes(l: Line) -> LineAttributes:
    """The (d, Δ) attributes of a line."""
    lo, hi = l.representative
    d = forms.wedge_degree(lo, hi)
    delta = poly.mdeg_add(poly.mdeg_sub(poly.deg(hi), poly.deg(lo)), d)
    return LineAttributes(d=d, delta=delta)


def inner_resonance(l: Line) -> bool:
    """True iff the line's upper stratum is an ℕ-multiple of its lower one."""
    d1, d2 = (poly.deg(p) for p in l.representative)
    return analysis.nat_multiple(d1, d2) is not None


def complement_degree(v: Vertex3, l: Line) -> MultiDegree:
    """deg(v ∖ l): the vertex degree minus the line degree."""
    if not line_in_vertex(l, v):
        raise NotIncident("the line is not a line of the vertex")
    vd = vertex_degrees(v).total
    ld = vertex_degrees(l).total
    return poly.mdeg_sub(vd, ld)


def outer_resonance(l: Line, v: Vertex3) -> bool:
    """True iff deg(v ∖ l) is an ℕ-combination of the line's strata."""
    target = complement_degree(v, l)
    d1, d2 = (poly.deg(p) for p in l.representative)
    return analysis.nat_combination(target, d1, d2) is not None


# ---------------------------------------------------------------------------
# Neighbors and the pivotal form
# ---------------------------------------------------------------------------

def complete_to_vertex(v: Vertex3, l: Line) -> Poly:
    """The canonical component of v completing the line l to v.

    Every element of l's span has one of l's two tops, and those are two of
    v's three: the component of v with the third top is the one outside l,
    and every component of v before it lies in l.
    """
    if not line_in_vertex(l, v):
        raise NotIncident("the line is not a line of the vertex")
    tops = [poly.deg(q) for q in l.representative]
    return next(g for g in v.representative if poly.deg(g) not in tops)


def neighbor(v: Vertex3, center: Line, p: BiPoly) -> Vertex3:
    """The neighbor of v through the center line determined by P.

    P's variable y is bound to the *higher*-degree canonical component of the
    center and z to the lower one (the order in which resonance and search
    speak of a pair).  With center representative (lo, hi) and h completing
    it to v, the neighbor is the vertex of (lo, hi, h + P(hi, lo)).  P must
    be non-affine (an affine P would return v itself); the center is then the
    unique line shared by the two vertices.
    """
    if analysis.bipoly_is_affine(p):
        raise AffineP("the correcting polynomial must be non-affine")
    lo, hi = center.representative
    h = complete_to_vertex(v, center)
    corrected = poly.add(h, analysis.eval_yz(p, hi, lo))
    if not corrected or poly.deg(corrected) == _CONST:
        raise DegenerateTuple("correction collapsed the third component")
    # d(h + P(hi, lo)) ∧ dhi ∧ dlo = dh ∧ dhi ∧ dlo ≠ 0, since d(P(hi, lo))
    # lies in the span of dhi and dlo and v is independent: no re-check.
    return Vertex3(good_representative((lo, hi, corrected)))


def spf_check(pivot: Point, center: Line, v: Vertex3) -> int | None:
    """Strong Pivotal Form: the odd s ≥ 3 shaping a K-reduction's simplex.

    Requires pivot ∈ center ∈ lines of v.  Returns s when all four hold:
      • pivot degree is 2δ and the center's strata are (2δ, sδ), s odd ≥ 3;
      • the center has no outer resonance in v;
      • the center is not the minimal line of v;
      • deg(v ∖ center) ≥ Δ(center).
    Returns None otherwise.
    """
    if not point_in_line(pivot, center):
        raise NotIncident("the pivot is not a point of the center line")
    if not line_in_vertex(center, v):
        raise NotIncident("the center is not a line of the vertex")
    lam1, lam2 = (poly.deg(p) for p in center.representative)
    pi = poly.deg(pivot.representative)
    if pi != lam1:
        return None
    if any(a % 2 for a in pi):
        return None
    delta = (pi[0] // 2, pi[1] // 2, pi[2] // 2)
    s = analysis.nat_multiple(delta, lam2)
    if s is None or s < 3 or s % 2 == 0:
        return None
    if outer_resonance(center, v):
        return None
    if line_equal(center, minimal_line(v)):
        return None
    if not poly.mdeg_ge(complement_degree(v, center), line_attributes(center).delta):
        return None
    return s

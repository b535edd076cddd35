"""The reduction engine: searches, K-classification, paths, certificates.

Everything above this module answers local questions (degrees, wedges,
resonance, single vertices); this one strings those answers into moves.  A
move replaces the component completing a center line by that component plus
a polynomial in the two center components, chosen by exact linear
cancellation so that the vertex degree drops.  Moves are classified by the
shape of their correction and by the resonance data of their center
(elementary, simple, elementary K, proper K); chains of moves form reduction
paths down to the identity vertex.  When the degree arithmetic alone
excludes every move — pairwise incommensurable strata, no ℕ-combinations,
no twice-a-degree pivot candidate — that impossibility is packaged as a
non-tameness certificate, the one conclusion here that needs no budget.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from fractions import Fraction

from tame3 import analysis, forms, linalg, poly
from tame3.analysis import BiPoly
from tame3.errors import (
    BudgetExceeded,
    DependentInputs,
    HypothesesUnmet,
    IdentityVertex,
    NotIncident,
    NotNeighbors,
)
from tame3.poly import MultiDegree, Poly
from tame3.vertices import (
    Automorphism,
    Line,
    Point,
    Vertex3,
    complement_degree,
    complete_to_vertex,
    inner_resonance,
    is_identity,
    line,
    line_attributes,
    line_equal,
    line_in_vertex,
    lines_of,
    minimal_line,
    minimal_vertex,
    neighbor,
    outer_resonance,
    point,
    point_equal,
    spf_check,
    vertex3,
    vertex_degrees,
    vertex_equal,
)

KIND_ELEMENTARY = "elementary"
KIND_SIMPLE = "simple-elementary"
KIND_ELEMENTARY_K = "elementary-K"
KIND_PROPER_K = "proper-K"

_F1 = Fraction(1)
_CONST = (0, 0, 0)


# ---------------------------------------------------------------------------
# Budgets, steps, reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchBudget:
    """Caps for the bounded cancellation search.

    virt_bound, when given, caps the virtual degree of every candidate
    correction outright.  When None, a bound is derived per call: with an
    incommensurable center pair no strict virtual drop is possible, so the
    bound collapses to the degree being cancelled; with a resonant pair the
    parachute floor for strict drops either proves the same collapse or the
    bound is padded by slack times the drop penalty per multiplicity unit.
    support_cap limits the number of monomials in an accumulated correction.
    """

    virt_bound: MultiDegree | None = None
    support_cap: int = 64
    slack: int = 1

    def __post_init__(self):
        if self.support_cap <= 0 or self.slack <= 0:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True, eq=False)
class KReductionEvidence:
    """Verdicts for the five elementary-K conditions at a shared center."""

    center: Line
    pivot: Point
    delta: MultiDegree
    complement: MultiDegree
    degree_drop: bool
    no_inner_resonance: bool
    no_outer_resonance: bool
    center_not_minimal: bool
    delta_dominates: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.degree_drop
            and self.no_inner_resonance
            and self.no_outer_resonance
            and self.center_not_minimal
            and self.delta_dominates
        )


@dataclass(frozen=True, eq=False)
class ProperKEvidence:
    """Verdicts for the proper-K conditions, plus the normality flag.

    The five elementary verdicts apply to the auxiliary pair (w, u); the two
    extra conditions tie the auxiliary vertex back to the reduced one.  The
    normality flag (not itself a condition) records whether the step resists
    rewriting as a weak simple move — equivalently, whether the pivotal
    simplex has strong pivotal form with s = 3, cross-checked via the stored
    s.
    """

    elementary: KReductionEvidence
    aux_center: Line
    pivot: Point
    aux_degree_ok: bool
    aux_center_minimal: bool
    normal: bool
    s: int | None

    @property
    def all_hold(self) -> bool:
        return self.elementary.all_hold and self.aux_degree_ok and self.aux_center_minimal


@dataclass(frozen=True, eq=False)
class ReductionStep:
    """One move between vertices sharing the center line.

    The correction contract: target == neighbor(source, center, data), i.e.
    data is bound to the center's canonical representative with y the higher
    component and z the lower.  kind is one of the KIND_* strings; pivot is
    the minimal point of the center for plain and K moves, and the simple
    pivot for simple ones.  auxiliary carries the scaffolding vertex of a
    proper-K move; evidence the condition verdicts of a classified one.
    """

    kind: str
    source: Vertex3
    target: Vertex3
    center: Line
    pivot: Point
    data: BiPoly
    auxiliary: Vertex3 | None = None
    evidence: KReductionEvidence | ProperKEvidence | None = None
    strict: bool = True


@dataclass(frozen=True, eq=False)
class ReductionPath:
    """A chain of strictly degree-dropping steps ending at a vertex."""

    steps: tuple[ReductionStep, ...]
    terminal: Vertex3


@dataclass(frozen=True, eq=False)
class SearchAttempt:
    """One failed probe: where the engine looked and why it came back empty."""

    center: Line | None
    search: str
    outcome: str


@dataclass(frozen=True, eq=False)
class NonReducibleReport:
    """Structured evidence that no move was found — not proof that none exists."""

    source: Vertex3
    attempts: tuple[SearchAttempt, ...]


@dataclass(frozen=True, eq=False)
class NonTameCertificate:
    """Budget-free evidence that a vertex admits no reduction at all.

    degrees are the stratified component degrees; independence lists the
    index pairs verified pairwise ℤ-independent; combination_free the
    indices verified not to be ℕ-combinations of the other two (together
    these kill every elementary move exactly); no_two_delta explains, per
    component, why no pivot of degree 2δ with an odd-multiple partner
    exists (killing every K-move); searched_centers records the per-line
    outcomes in concrete form.
    """

    degrees: tuple[MultiDegree, ...]
    independence: tuple[tuple[int, int], ...]
    combination_free: tuple[int, ...]
    no_two_delta: tuple[str, ...]
    searched_centers: tuple[SearchAttempt, ...]


@dataclass(frozen=True, eq=False)
class SquareRewrite:
    """A commuting square below a vertex: two step pairs meeting at u."""

    u: Vertex3
    via_prime: tuple[ReductionStep, ReductionStep]
    via_second: tuple[ReductionStep, ReductionStep]


# ---------------------------------------------------------------------------
# Span intersections (shared centers, common points)
# ---------------------------------------------------------------------------

def _span_intersection(a: tuple[Poly, ...], b: tuple[Poly, ...]) -> list[Poly]:
    """A basis, modulo constants, of the intersection of two affine spans."""
    cols = [dict(p) for p in a]
    cols.append({_CONST: _F1})
    cols.extend({e: -c for e, c in p.items()} for p in b)
    cols.append({_CONST: -_F1})
    out: list[Poly] = []
    for vec in linalg.nullspace(cols):
        # Canonical a-components and the constant are independent, so they
        # are pivots; the free −1 column gives w = 0, and each free b-column
        # gives a w whose b-coefficients are 1 in its slot and 0 in the other
        # free slots, so the nonzero w are independent modulo constants.
        w: Poly = {}
        for coeff, p in zip(vec, a):
            if coeff:
                w = poly.add(w, poly.scale(coeff, p))
        w.pop(_CONST, None)
        if w:
            out.append(w)
    return out


def shared_center(v: Vertex3, u: Vertex3) -> Line:
    """The unique line shared by two neighboring type-3 vertices."""
    if vertex_equal(v, u):
        raise NotNeighbors("the vertices are equal")
    inter = _span_intersection(v.representative, u.representative)
    if len(inter) != 2:
        raise NotNeighbors("the vertices share no line")
    return line((inter[0], inter[1]))


def _common_point(a: Line, b: Line) -> Point | None:
    """The point where two distinct lines meet, if they do."""
    inter = _span_intersection(a.representative, b.representative)
    if len(inter) != 1:
        return None
    return point(inter[0])


# ---------------------------------------------------------------------------
# Elementary search
# ---------------------------------------------------------------------------

def _stage_bound(
    budget: SearchBudget,
    target: MultiDegree,
    d_hi: MultiDegree,
    d_lo: MultiDegree,
    d_line: MultiDegree,
) -> MultiDegree:
    """Virtual-degree cap for one cancellation stage.

    Incommensurable pair: a strict virtual drop is impossible, so any useful
    correction has virtual degree exactly the target — the bound is the
    target itself.  Resonant pair: corrections with strict drop obey the
    parachute floor (pq − p − q)·δ + d; if that floor exceeds the target
    they cannot help either, otherwise the bound pads the target by slack
    times the per-multiplicity penalty deg f₁ + deg f₂ − d.
    """
    if budget.virt_bound is not None:
        return budget.virt_bound
    res = analysis.pq_resonance(d_hi, d_lo)
    if res is None:
        return target
    p, q, delta = res
    floor = poly.mdeg_add(poly.mdeg_scale(p * q - p - q, delta), d_line)
    if poly.mdeg_gt(floor, target):
        return target
    penalty = poly.mdeg_sub(poly.mdeg_add(d_hi, d_lo), d_line)
    return poly.mdeg_add(target, poly.mdeg_scale(budget.slack, penalty))


def _stage_candidates(
    target: MultiDegree,
    bound: MultiDegree,
    d_hi: MultiDegree,
    d_lo: MultiDegree,
) -> list[tuple[int, int]]:
    """Exponent pairs whose product degree lies in [target, bound]."""
    total = sum(bound)
    out: list[tuple[tuple, int, int]] = []
    for i in range(total // sum(d_hi) + 1):
        for j in range(total // sum(d_lo) + 1):
            if i + j == 0:
                continue
            dd = tuple(i * a + j * b for a, b in zip(d_hi, d_lo))
            if poly.mdeg_ge(dd, target) and poly.mdeg_le(dd, bound):
                out.append((poly.grlex_key(dd), i, j))
    out.sort()
    return [(i, j) for _, i, j in out]


def elementary_search(
    v: Vertex3, center: Line, budget: SearchBudget = DEFAULT_BUDGET
) -> tuple[BiPoly, Vertex3, bool] | None:
    """Lowest neighbor of v through the center reachable within budget.

    Fixes the candidate support of one cancellation stage from the center's
    resonance data, solves the exact linear system forcing every monomial of
    degree at least the current completion degree to vanish, and iterates
    greedily on the corrected component.  Returns (P, target, optimal) with
    P the accumulated correction, target the lowest vertex reached and
    optimal True when the final stage was infeasible rather than cut off by
    the support cap; None when no strict drop exists within budget.
    """
    if not line_in_vertex(center, v):
        raise NotIncident("the center is not a line of the vertex")
    lo, hi = center.representative
    d_lo, d_hi = poly.deg(lo), poly.deg(hi)
    d_line = line_attributes(center).d
    h = complete_to_vertex(v, center)
    products: dict[tuple[int, int], Poly] = {}

    def product(i: int, j: int) -> Poly:
        if (i, j) not in products:
            products[(i, j)] = poly.mul(poly.p_pow(hi, i), poly.p_pow(lo, j))
        return products[(i, j)]

    total: BiPoly = {}
    optimal = False
    while True:
        target = poly.deg(h)
        bound = _stage_bound(budget, target, d_hi, d_lo, d_line)
        cands = _stage_candidates(target, bound, d_hi, d_lo)
        if not cands:
            optimal = True
            break
        cut = poly.grlex_key(target)
        cols = [
            {e: c for e, c in product(i, j).items() if poly.grlex_key(e) >= cut}
            for i, j in cands
        ]
        rhs = {e: -c for e, c in h.items() if poly.grlex_key(e) >= cut}
        sol = linalg.solve_exact(cols, rhs)
        if sol is None:
            optimal = True
            break
        stage = {ij: c for ij, c in zip(cands, sol) if c}
        merged = dict(total)
        for ij, c in stage.items():
            acc = merged.get(ij, 0) + c
            if acc:
                merged[ij] = acc
            else:
                merged.pop(ij, None)
        if len(merged) > budget.support_cap:
            break
        for ij, c in stage.items():
            h = poly.add(h, poly.scale(c, product(*ij)))
        if not h:
            raise DependentInputs(
                "the completing component is a polynomial in the center components"
            )
        assert poly.mdeg_lt(poly.deg(h), target)
        total = merged
    if not total or analysis.bipoly_is_affine(total):
        return None
    # inherited independence: d(h + P(hi, lo)) ∧ dhi ∧ dlo = dh ∧ dhi ∧ dlo ≠ 0
    return (total, Vertex3(linalg.good_representative((lo, hi, h))), optimal)


# ---------------------------------------------------------------------------
# Simple reductions
# ---------------------------------------------------------------------------

def _simple_split(p: BiPoly) -> tuple[str, BiPoly] | None:
    """Split a correction of simple shape: univariate part plus linear rest.

    Returns ("y", part) when p = Q(y) + a·z with Q non-affine, ("z", part)
    in the mirrored case, None otherwise; part is p without the linear term
    in the other variable.
    """
    if all(j == 0 or (i, j) == (0, 1) for i, j in p):
        part = {ij: c for ij, c in p.items() if ij != (0, 1)}
        if any(i >= 2 for i, _ in part):
            return ("y", part)
    if all(i == 0 or (i, j) == (1, 0) for i, j in p):
        part = {ij: c for ij, c in p.items() if ij != (1, 0)}
        if any(j >= 2 for _, j in part):
            return ("z", part)
    return None


def _step_kind(center: Line, h: Poly, p: BiPoly) -> tuple[str, Point]:
    """Kind and pivot of a non-K move from the shape of its correction."""
    lo, hi = center.representative
    split = _simple_split(p)
    if split is not None:
        side, part = split
        partial = poly.add(h, analysis.eval_yz(part, hi, lo))
        if poly.mdeg_lt(poly.deg(partial), poly.deg(h)):
            return (KIND_SIMPLE, point(hi if side == "y" else lo))
    return (KIND_ELEMENTARY, minimal_vertex(center))


def simple_search(v: Vertex3, center: Line, pivot: Point) -> ReductionStep | None:
    """A simple move: cancel the completion by powers of the pivot component.

    Greedily strips top terms of the completing component with powers of the
    pivot; when the residue's degree collides with the other center
    component, a single linear fix in that component takes precedence (the
    only way the linear coefficient can become nonzero — a component
    carrying the vertex's top degree can never be reached from below, so its
    coefficient stays zero exactly when it must, and conversely the fix is
    what keeps the corrected family free of degree collisions).  Returns a
    strict step or None.
    """
    if not line_in_vertex(center, v):
        raise NotIncident("the center is not a line of the vertex")
    lo, hi = center.representative
    q = pivot.representative
    coords = linalg.affine_coordinates((lo, hi), q)
    if coords is None:
        raise NotIncident("the pivot is not a point of the center line")
    other = hi if not coords[1] else lo
    h = complete_to_vertex(v, center)
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
        k = analysis.nat_multiple(d_q, d_t)
        if k is not None and k >= 1:
            c = -poly.top_term(target).coefficient / poly.top_term(poly.p_pow(q, k)).coefficient
            powers[k] = powers.get(k, Fraction(0)) + c
            target = poly.add(target, poly.scale(c, poly.p_pow(q, k)))
            continue
        break
    qpart = {k: c for k, c in powers.items() if c}
    if not any(k >= 2 for k in qpart):
        return None
    partial = poly.add(h, analysis.eval_y({k: poly.const(c) for k, c in qpart.items()}, q))
    d_h = poly.deg(h)
    if not (poly.mdeg_lt(poly.deg(partial), d_h) and poly.mdeg_lt(poly.deg(target), d_h)):
        return None
    # Expand Q(q) + a·other over (y, z) = (hi, lo) through the pivot's
    # coordinates, using a scratch polynomial in two slots.
    base: Poly = {}
    if coords[1]:
        base[(1, 0, 0)] = coords[1]
    if coords[0]:
        base[(0, 1, 0)] = coords[0]
    if coords[2]:
        base[(0, 0, 0)] = coords[2]
    scratch: Poly = {}
    for k, c in qpart.items():
        scratch = poly.add(scratch, poly.scale(c, poly.p_pow(base, k)))
    if a:
        scratch = poly.add(scratch, {(1, 0, 0) if other is hi else (0, 1, 0): a})
    data: BiPoly = {(e[0], e[1]): c for e, c in scratch.items() if e != _CONST}
    return ReductionStep(
        kind=KIND_SIMPLE,
        source=v,
        target=neighbor(v, center, data),
        center=center,
        pivot=pivot,
        data=data,
        strict=True,
    )


# ---------------------------------------------------------------------------
# K-classification
# ---------------------------------------------------------------------------

def elementary_K_report(v: Vertex3, u: Vertex3) -> KReductionEvidence:
    """Condition-by-condition elementary-K verdicts for a neighboring pair."""
    return _elementary_K_evidence(v, u, shared_center(v, u))


def _elementary_K_evidence(v: Vertex3, u: Vertex3, center: Line) -> KReductionEvidence:
    """The five elementary-K verdicts for neighbors v, u sharing center.

    Every verdict depends on the center only through its affine span, so any
    canonical representative of the shared line gives the same verdicts.
    """
    attrs = line_attributes(center)
    comp = complement_degree(u, center)
    return KReductionEvidence(
        center=center,
        pivot=minimal_vertex(center),
        delta=attrs.delta,
        complement=comp,
        degree_drop=poly.mdeg_gt(vertex_degrees(v).total, vertex_degrees(u).total),
        no_inner_resonance=not inner_resonance(center),
        no_outer_resonance=not outer_resonance(center, v),
        center_not_minimal=not line_equal(center, minimal_line(v)),
        delta_dominates=poly.mdeg_gt(attrs.delta, comp),
    )


def classify_elementary_K(v: Vertex3, u: Vertex3) -> KReductionEvidence | None:
    """The elementary-K evidence when all five conditions hold, else None."""
    ev = elementary_K_report(v, u)
    return ev if ev.all_hold else None


def _weak_simple_relation(w: Vertex3, v: Vertex3, center: Line, pivot: Point) -> bool:
    """Is v a weak simple rewrite of w over (center, pivot)?

    Tests whether v's completing component decomposes as a nonzero multiple
    of w's plus a non-affine univariate polynomial in the pivot component
    plus a linear term in the complementary center direction, with neither
    partial sum exceeding the degree of w's completion.
    """
    g = complete_to_vertex(w, center)
    f = complete_to_vertex(v, center)
    q = pivot.representative
    other = next(
        c
        for c in center.representative
        if linalg.affine_coordinates((q,), c) is None
    )
    kmax = max(sum(poly.deg(g)), sum(poly.deg(f))) // sum(poly.deg(q))
    if kmax < 2:
        return False
    cols = [dict(g)]
    cols.extend(dict(poly.p_pow(q, k)) for k in range(1, kmax + 1))
    cols.append(dict(other))
    cols.append({_CONST: _F1})
    sol = linalg.solve_exact(cols, f)
    if sol is None or not sol[0]:
        return False
    qcoeffs = {k: sol[k] / sol[0] for k in range(1, kmax + 1) if sol[k]}
    if not any(k >= 2 for k in qcoeffs):
        return False
    partial = g
    for k, c in qcoeffs.items():
        partial = poly.add(partial, poly.scale(c, poly.p_pow(q, k)))
    full = poly.add(partial, poly.scale(sol[kmax + 1] / sol[0], other))
    d_g = poly.deg(g)
    return poly.mdeg_ge(d_g, poly.deg(partial)) and poly.mdeg_ge(d_g, poly.deg(full))


def proper_K_report(v: Vertex3, w: Vertex3, u: Vertex3) -> ProperKEvidence:
    """Condition-by-condition proper-K verdicts for a triple (v, w, u)."""
    elem = elementary_K_report(w, u)
    m2 = shared_center(w, v)
    piv = _common_point(m2, elem.center)
    if piv is None:
        raise NotNeighbors("the two centers do not meet in a single point")
    return ProperKEvidence(
        elementary=elem,
        aux_center=m2,
        pivot=piv,
        aux_degree_ok=poly.mdeg_ge(vertex_degrees(w).total, vertex_degrees(v).total),
        aux_center_minimal=line_equal(m2, minimal_line(w)),
        normal=not _weak_simple_relation(w, v, m2, piv),
        s=spf_check(piv, elem.center, w),
    )


def classify_proper_K(v: Vertex3, w: Vertex3, u: Vertex3) -> ProperKEvidence | None:
    """The proper-K evidence when all seven conditions hold, else None."""
    ev = proper_K_report(v, w, u)
    return ev if ev.all_hold else None


# ---------------------------------------------------------------------------
# One step, full paths
# ---------------------------------------------------------------------------

def _proper_probe(v: Vertex3, budget: SearchBudget) -> ReductionStep | SearchAttempt:
    """Probe for a proper-K move through an auxiliary vertex of normal shape.

    The auxiliary is the neighbor of v through its minimal line with the
    quadratic correction z² (linear adjustments land in the same vertex);
    the probe fires only when the minimal-line strata and the completion
    degree fit the normal shape — pivot stratum 2δ, lower stratum in
    (δ, 3δ/2], completion in (5δ/2, 3δ] with some component reaching 3δ.
    """
    m2 = minimal_line(v)
    lo, hi = m2.representative

    def miss(outcome: str) -> SearchAttempt:
        return SearchAttempt(center=m2, search="proper-K probe", outcome=outcome)

    d_hi, d_lo = poly.deg(hi), poly.deg(lo)
    if any(a % 2 for a in d_hi):
        return miss("the pivot stratum is not twice an integral degree")
    delta = tuple(a // 2 for a in d_hi)
    if not (poly.mdeg_gt(d_lo, delta) and poly.mdeg_le(poly.mdeg_scale(2, d_lo), poly.mdeg_scale(3, delta))):
        return miss("the lower stratum is outside (δ, 3δ/2]")
    f1 = complete_to_vertex(v, m2)
    d1 = poly.deg(f1)
    if not (poly.mdeg_gt(poly.mdeg_scale(2, d1), poly.mdeg_scale(5, delta)) and poly.mdeg_le(d1, poly.mdeg_scale(3, delta))):
        return miss("the completion degree is outside (5δ/2, 3δ]")
    t3 = poly.mdeg_scale(3, delta)
    if d1 != t3 and poly.mdeg_scale(2, d_lo) != t3:
        return miss("no corrected component can reach degree 3δ")
    w = neighbor(v, m2, {(0, 2): _F1})
    g1 = complete_to_vertex(w, m2)
    if poly.deg(g1) != t3:
        return miss("the quadratic correction missed degree 3δ")
    w2 = line((g1, hi))
    res = elementary_search(w, w2, budget)
    if res is None:
        return miss("the auxiliary vertex admits no cancellation within budget")
    data, u, _ = res
    ev = proper_K_report(v, w, u)
    if not ev.all_hold or not poly.mdeg_gt(vertex_degrees(v).total, vertex_degrees(u).total):
        return miss("the auxiliary candidate fails the proper-K conditions")
    return ReductionStep(
        kind=KIND_PROPER_K,
        source=v,
        target=u,
        center=ev.elementary.center,
        pivot=ev.pivot,
        data=data,
        auxiliary=w,
        evidence=ev,
        strict=True,
    )


def reduce_once(
    v: Vertex3, budget: SearchBudget = DEFAULT_BUDGET
) -> ReductionStep | NonReducibleReport:
    """The first strict move from v, or a report of every failed attempt.

    Tries elementary cancellation over each line of the canonical triangle,
    minimal line first, and returns the move of the first line that yields
    one, classified as elementary-K when all five conditions hold.  It may
    stop there: when v has an elementary K-reduction, no other center admits
    an elementary move, so a K-move is never preceded by a plain one.  Only
    if every line fails does the proper-K probe run.
    """
    if is_identity(v):
        raise IdentityVertex("the identity vertex admits no reduction")
    attempts: list[SearchAttempt] = []
    for cline in lines_of(v):
        res = elementary_search(v, cline, budget)
        if res is None:
            attempts.append(
                SearchAttempt(
                    center=cline,
                    search="elementary cancellation",
                    outcome="no strict drop within budget",
                )
            )
            continue
        data, target, _ = res
        # target is (lo, hi, corrected) over cline's own components, so cline
        # is the line it shares with v.
        ev = _elementary_K_evidence(v, target, cline)
        if ev.all_hold:
            return ReductionStep(
                kind=KIND_ELEMENTARY_K,
                source=v,
                target=target,
                center=ev.center,
                pivot=ev.pivot,
                data=data,
                evidence=ev,
            )
        kind, piv = _step_kind(cline, complete_to_vertex(v, cline), data)
        return ReductionStep(
            kind=kind,
            source=v,
            target=target,
            center=cline,
            pivot=piv,
            data=data,
        )
    probe = _proper_probe(v, budget)
    if isinstance(probe, ReductionStep):
        return probe
    attempts.append(probe)
    return NonReducibleReport(source=v, attempts=tuple(attempts))


_LADDER = (1, 2, 4, 8)


def _scaled(budget: SearchBudget, factor: int) -> SearchBudget:
    if factor == 1:
        return budget
    if budget.virt_bound is None:
        return replace(
            budget, slack=budget.slack * factor, support_cap=budget.support_cap * factor
        )
    return replace(
        budget,
        virt_bound=poly.mdeg_scale(factor, budget.virt_bound),
        support_cap=budget.support_cap * factor,
    )


def reduction_path(
    f: Automorphism, budget: SearchBudget = DEFAULT_BUDGET
) -> ReductionPath | NonReducibleReport:
    """Reduce the vertex of f step by step until the identity vertex.

    Strictly decreasing vertex degrees make termination automatic.  For
    witnessed tame inputs a failed step retries with the budget scaled up
    the doubling ladder before giving up as BudgetExceeded; unwitnessed
    inputs fail fast with the structured report.
    """
    v = vertex3(f.components)
    witnessed = f.witness is not None
    steps: list[ReductionStep] = []
    while not is_identity(v):
        found: ReductionStep | None = None
        report: NonReducibleReport | None = None
        for factor in _LADDER if witnessed else _LADDER[:1]:
            out = reduce_once(v, _scaled(budget, factor))
            if isinstance(out, ReductionStep):
                found = out
                break
            report = out
        if found is None:
            if witnessed:
                raise BudgetExceeded(
                    "no reduction found within the budget ladder for a witnessed "
                    f"tame vertex of degrees {vertex_degrees(v).stratified}"
                )
            assert report is not None
            return report
        steps.append(found)
        v = found.target
    return ReductionPath(steps=tuple(steps), terminal=v)


# ---------------------------------------------------------------------------
# The non-tameness certificate
# ---------------------------------------------------------------------------

def nontame_certificate(f: Automorphism) -> NonTameCertificate | None:
    """Budget-free non-tameness evidence from degree arithmetic alone.

    A certificate needs two things.  First, pairwise ℤ-independent strata
    none of which is an ℕ-combination of the other two: then no correction
    has a strict virtual drop and none reaches any completion degree, so no
    elementary move exists at any center, exactly.  Second, no stratum of
    the form 2δ with another stratum an odd multiple s·δ, s ≥ 3: any
    K-move's pivotal simplex would need exactly that pair among the strata
    (the auxiliary vertex of a proper move shares them).  Returns None as
    soon as either half is inconclusive — including for the identity.
    """
    if not forms.independent(*f.components):
        raise DependentInputs("components are algebraically dependent")
    v = vertex3(f.components)
    if is_identity(v):
        return None
    strata = vertex_degrees(v).stratified
    pairs = ((0, 1), (0, 2), (1, 2))
    for i, j in pairs:
        if analysis.pq_resonance(strata[j], strata[i]) is not None:
            return None
    for i in range(3):
        j, k = (t for t in range(3) if t != i)
        if analysis.nat_combination(strata[i], strata[j], strata[k]) is not None:
            return None
    notes: list[str] = []
    for i in range(3):
        d = strata[i]
        if any(a % 2 for a in d):
            notes.append(f"stratum {d} is not twice an integral degree")
            continue
        half = tuple(a // 2 for a in d)
        for j in range(3):
            if j == i:
                continue
            s = analysis.nat_multiple(half, strata[j])
            if s is not None and s >= 3 and s % 2:
                return None
        notes.append(f"no other stratum is an odd multiple s·{half} with s ≥ 3")
    searched = tuple(
        SearchAttempt(
            center=l,
            search="elementary cancellation (exact)",
            outcome="the completion degree is not an ℕ-combination of the "
            "line strata, so no correction cancels its top at any budget",
        )
        for l in lines_of(v)
    )
    return NonTameCertificate(
        degrees=strata,
        independence=pairs,
        combination_free=(0, 1, 2),
        no_two_delta=tuple(notes),
        searched_centers=searched,
    )


# ---------------------------------------------------------------------------
# The rewrite square
# ---------------------------------------------------------------------------

def _product_ceiling(
    pairs: Iterable[tuple[int, int]], d_hi: MultiDegree, d_lo: MultiDegree
) -> MultiDegree | None:
    """Largest degree of the products hi^i·lo^j over the given exponent pairs."""
    top: MultiDegree | None = None
    for i, j in pairs:
        prod = tuple(i * a + j * b for a, b in zip(d_hi, d_lo))
        if top is None or poly.mdeg_lt(top, prod):
            top = prod
    return top


def _connecting_bipoly(
    src: Vertex3, center: Line, dst: Vertex3, bound: MultiDegree | None = None
) -> BiPoly | None:
    """A correction P with neighbor(src, center, P) == dst, if expressible.

    Solves src's completion against dst's completion and the center
    products.  The candidate support is capped at `bound` when given, else
    at the larger completion degree — enough whenever the expression needs
    no cancellation above it; callers that know the correction symbolically
    pass the degree of its largest product instead.
    """
    lo, hi = center.representative
    ts = complete_to_vertex(src, center)
    tu = complete_to_vertex(dst, center)
    d_hi, d_lo = poly.deg(hi), poly.deg(lo)
    floor = poly.mdeg_max(poly.mdeg_max(poly.deg(ts), poly.deg(tu)), d_hi)
    bound = floor if bound is None else poly.mdeg_max(bound, floor)
    cands = [
        (i, j)
        for i in range(sum(bound) // sum(d_hi) + 1)
        for j in range(sum(bound) // sum(d_lo) + 1)
        if i + j
        and poly.mdeg_le(tuple(i * a + j * b for a, b in zip(d_hi, d_lo)), bound)
    ]
    cols = [dict(tu)]
    cols.extend(dict(poly.mul(poly.p_pow(hi, i), poly.p_pow(lo, j))) for i, j in cands)
    sol = linalg.solve_exact(cols, ts)
    if sol is None or not sol[0]:
        return None
    data = {ij: -c for ij, c in zip(cands, sol[1:]) if c}
    if not data or analysis.bipoly_is_affine(data):
        return None
    return data


def _bridge_step(
    src: Vertex3, center: Line, dst: Vertex3, bound: MultiDegree | None = None
) -> ReductionStep:
    """The step from src to dst through a known shared center."""
    data = _connecting_bipoly(src, center, dst, bound)
    assert data is not None, "connecting correction not expressible over the center"
    kind, piv = _step_kind(center, complete_to_vertex(src, center), data)
    return ReductionStep(
        kind=kind,
        source=src,
        target=dst,
        center=center,
        pivot=piv,
        data=data,
        strict=poly.mdeg_gt(vertex_degrees(src).total, vertex_degrees(dst).total),
    )


def square_rewrite(
    v: Vertex3, prime: ReductionStep, second: ReductionStep
) -> SquareRewrite:
    """Close two reductions of one vertex into a commuting square.

    Given a possibly-weak move through one center and a possibly-weak simple
    move pivoted at the centers' common point (at least one strict), builds
    the common lower neighbor u — the simple correction minus its linear
    term applied on top of the first move — and returns both two-step routes
    from v to u.  Violated hypotheses raise HypothesesUnmet naming the first
    failure.
    """
    if not vertex_equal(prime.source, v):
        raise HypothesesUnmet("the first step must start at the given vertex")
    if not vertex_equal(second.source, v):
        raise HypothesesUnmet("the second step must start at the given vertex")
    if line_equal(prime.center, second.center):
        raise HypothesesUnmet("the two centers must be distinct")
    dv = vertex_degrees(v).total
    for st, name in ((prime, "first"), (second, "second")):
        if not poly.mdeg_ge(dv, vertex_degrees(st.target).total):
            raise HypothesesUnmet(f"the {name} step may not increase the vertex degree")
    piv = _common_point(prime.center, second.center)
    if piv is None:
        raise HypothesesUnmet("the centers must meet in a single common point")
    lo2, hi2 = second.center.representative
    if point_equal(piv, point(hi2)):
        qcomp = hi2
    elif point_equal(piv, point(lo2)):
        qcomp = lo2
    else:
        raise HypothesesUnmet(
            "the common point must be a representative direction of the second center"
        )
    split = _simple_split(second.data)
    if split is None:
        raise HypothesesUnmet(
            "the second step must correct by a non-affine univariate polynomial "
            "in the pivot component plus at most a linear term"
        )
    side, qpart = split
    if (qcomp is hi2) != (side == "y"):
        raise HypothesesUnmet(
            "the second step's univariate correction must be in the common point's component"
        )
    if not point_equal(second.pivot, piv):
        raise HypothesesUnmet(
            "the second step's simple pivot must be the common point of the centers"
        )
    strict_a = poly.mdeg_gt(dv, vertex_degrees(prime.target).total)
    strict_b = poly.mdeg_gt(dv, vertex_degrees(second.target).total)
    if not (strict_a or strict_b):
        raise HypothesesUnmet("at least one of the two steps must drop the degree strictly")
    lo1, hi1 = prime.center.representative
    f1c = complete_to_vertex(v, second.center)
    f3c = complete_to_vertex(v, prime.center)
    g1 = poly.add(f1c, analysis.eval_yz(qpart, hi2, lo2))
    g3 = poly.add(f3c, analysis.eval_yz(prime.data, hi1, lo1))
    u = vertex3((g1, qcomp, g3))
    assert poly.mdeg_gt(dv, vertex_degrees(u).total)
    line_a = line((qcomp, g3))
    line_b = line((g1, qcomp))
    assert line_in_vertex(line_a, prime.target) and line_in_vertex(line_a, u)
    assert line_in_vertex(line_b, second.target) and line_in_vertex(line_b, u)
    # Each bridge correction is known symbolically — the simple part rides
    # over to the first target, the first correction rides over to the second
    # target — so the largest product it can involve is known too, even when
    # that exceeds both completions' degrees.
    d_q = poly.deg(qcomp)
    d_hi1, d_lo1 = poly.deg(hi1), poly.deg(lo1)
    bound_a = _product_ceiling(((0, i + j) for i, j in qpart), d_hi1, d_q)
    bound_b = _product_ceiling(prime.data, d_hi1, d_lo1)
    return SquareRewrite(
        u=u,
        via_prime=(prime, _bridge_step(prime.target, line_a, u, bound_a)),
        via_second=(second, _bridge_step(second.target, line_b, u, bound_b)),
    )

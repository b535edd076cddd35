"""Differential forms: exterior derivative, wedges, degrees, independence."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tame3 import forms, poly
from tame3.errors import DegreeOverflow
from tame3.reduction import reduction_path
from tame3.vertices import eval_word
from tame3.wordgen import GeneratorSpec, gen_tame

from fixtures import CUBIC, NAGATA, QUINTIC, P, X1, X2, X3
from oracles import naive_mul

coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: {e: c for e, c in d.items() if c}
)
one_forms = st.tuples(polys, polys, polys).map(forms.OneForm)

# wide coefficients on a few monomials, so supports overlap within and
# between forms as often as they are disjoint
wide_coeffs = st.builds(F, st.integers(-(2**64), 2**64), st.integers(1, 2**16))
wide_polys = st.dictionaries(
    st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 1)]),
    wide_coeffs,
    max_size=4,
).map(lambda d: {e: c for e, c in d.items() if c})
wide_triples = st.tuples(wide_polys, wide_polys, wide_polys)


@st.composite
def wedge_inputs(draw):
    """1–3 polynomials: raw draws, affine combinations of them, or (f, g, f·g).

    A mixing matrix with several nonzero entries makes components share the
    top degree of the highest draw; a zero row makes a constant component and
    a singular matrix an affinely dependent tuple.
    """
    r = draw(st.integers(1, 3))
    gs = draw(st.lists(polys, min_size=r, max_size=r))
    if r == 3 and draw(st.booleans()):
        return (gs[0], gs[1], poly.mul(gs[0], gs[1]))
    if draw(st.booleans()):
        rows = [[int(i == j) for j in range(r)] for i in range(r)]
    else:
        row = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
        rows = draw(st.lists(row, min_size=r, max_size=r))
    shifts = draw(st.lists(coeffs, min_size=r, max_size=r))
    fs = []
    for row, b in zip(rows, shifts):
        f = poly.const(b)
        for m, g in zip(row, gs):
            f = poly.add(f, poly.scale(m, g))
        fs.append(f)
    return tuple(fs)


# -- exterior derivative ------------------------------------------------------


def test_differential_of_constant_vanishes():
    assert forms.is_zero_form(forms.differential(P((7, 0, 0, 0))))
    assert forms.is_zero_form(forms.differential({}))


def test_differential_of_coordinates():
    assert forms.differential(X1).coefficients == (P((1, 0, 0, 0)), {}, {})
    assert forms.differential(X3).coefficients == ({}, {}, P((1, 0, 0, 0)))


@given(polys, polys)
def test_differential_is_additive(p, q):
    dp, dq = forms.differential(p), forms.differential(q)
    expected = tuple(poly.add(a, b) for a, b in zip(dp.coefficients, dq.coefficients))
    assert forms.differential(poly.add(p, q)).coefficients == expected


@given(polys, polys)
def test_differential_leibniz_rule(p, q):
    # d(pq) = p·dq + q·dp, checked coefficientwise
    dp, dq = forms.differential(p), forms.differential(q)
    got = forms.differential(poly.mul(p, q))
    for i in range(3):
        expected = poly.add(
            poly.mul(p, dq.coefficients[i]), poly.mul(q, dp.coefficients[i])
        )
        assert got.coefficients[i] == expected


# -- wedge products -----------------------------------------------------------


def test_wedge_of_coordinate_differentials_is_oriented_basis():
    d1, d2, d3 = (forms.differential(x) for x in (X1, X2, X3))
    w = forms.wedge11(d1, d2)
    assert w.coefficients == (P((1, 0, 0, 0)), {}, {})
    top = forms.wedge21(w, d3)
    assert top.coefficient == P((1, 0, 0, 0))


@given(one_forms)
def test_wedge_with_self_vanishes(a):
    assert forms.is_zero_form(forms.wedge11(a, a))


@given(one_forms, one_forms)
def test_wedge_antisymmetry(a, b):
    ab = forms.wedge11(a, b)
    ba = forms.wedge11(b, a)
    for u, v in zip(ab.coefficients, ba.coefficients):
        assert u == poly.neg(v)


def oracle_minors(a: forms.OneForm, b: forms.OneForm) -> tuple:
    """a_i·b_j − a_j·b_i in the basis order (12, 13, 23), by naive products."""
    a, b = a.coefficients, b.coefficients
    return tuple(
        poly.sub(naive_mul(a[i], b[j]), naive_mul(a[j], b[i]))
        for i, j in ((0, 1), (0, 2), (1, 2))
    )


def oracle_top(t: forms.TwoForm, o: forms.OneForm) -> poly.Poly:
    """t12·o3 − t13·o2 + t23·o1 by naive products."""
    (t12, t13, t23), (o1, o2, o3) = t.coefficients, o.coefficients
    return poly.add(poly.sub(naive_mul(t12, o3), naive_mul(t13, o2)), naive_mul(t23, o1))


BIG = 2**64
# the middle minor a1b3 − a3b1 sums to 0 between two large negative neighbours:
# at one row pair, and across two row pairs that meet at x1·x2
BORROW_ONE_ROW = (
    forms.OneForm((P((1, 0, 0, 0)), P((BIG, 0, 0, 0)), P((-1, 0, 0, 0)))),
    forms.OneForm((P((1, 0, 0, 0)), P((-BIG, 0, 0, 0)), P((-1, 0, 0, 0)))),
)
BORROW_TWO_ROWS = (
    forms.OneForm((
        P((2**32, 1, 0, 0)),
        P((-BIG, 1, 0, 0), (BIG, 0, 1, 0)),
        P((F(5 * 2**32, 3), 0, 1, 0)),
    )),
    forms.OneForm((
        P((F(3 * 2**32, 5), 1, 0, 0)),
        P((-BIG, 0, 1, 0), (BIG, 1, 0, 0)),
        P((2**32, 0, 1, 0)),
    )),
)


@settings(max_examples=300, deadline=None)
@given(wide_triples, wide_triples, wide_triples)
@example(*(f.coefficients for f in BORROW_ONE_ROW), ({}, {}, P((-BIG, 0, 0, 0))))
@example(*(f.coefficients for f in BORROW_TWO_ROWS), (P((BIG, 0, 0, 0)), {}, {}))
def test_wedge_kernels_match_naive_minors(a, b, c):
    a, b, c = forms.OneForm(a), forms.OneForm(b), forms.OneForm(c)
    minors = oracle_minors(a, b)
    assert forms.wedge11(a, b).coefficients == minors
    t = forms.TwoForm(minors)
    assert forms.wedge21(t, c).coefficient == oracle_top(t, c)
    # a 2-form with wide coefficients of its own, not a wedge
    u = forms.TwoForm(c.coefficients)
    assert forms.wedge21(u, a).coefficient == oracle_top(u, a)


def test_borrow_examples_have_a_zero_middle_minor():
    for (a, b), e in ((BORROW_ONE_ROW, (0, 0, 0)), (BORROW_TWO_ROWS, (1, 1, 0))):
        m12, m13, m23 = oracle_minors(a, b)
        assert e not in m13
        assert m12[e] <= -(2**65) and m23[e] <= -(2**65)


def test_wedge_kernels_keep_the_degree_cap():
    top = poly.MAX_TOTAL_DEGREE
    big = poly.monomial((top, 0, 0))
    with pytest.raises(DegreeOverflow):
        forms.wedge11(forms.differential(big), forms.differential(poly.monomial((0, 5, 0))))
    with pytest.raises(DegreeOverflow):
        forms.wedge21(forms.TwoForm((big, {}, {})), forms.differential(poly.monomial((0, 0, 5))))
    # collinear top degrees, so the wedge of d(x1^top) and d(x1^5 + x2^4) is built
    with pytest.raises(DegreeOverflow):
        forms.wedge_degree(big, P((1, 5, 0, 0), (1, 0, 4, 0)))
    # a product of total degree exactly the cap is allowed
    edge = forms.differential(poly.monomial((top - 3, 0, 0)))
    w = forms.wedge11(edge, forms.differential(poly.monomial((0, 5, 0))))
    assert w.coefficients == (P((5 * (top - 3), top - 4, 4, 0)), {}, {})


def test_wedge_repeats_are_fresh_and_follow_operands():
    d1, d3 = forms.differential(poly.mul(X1, X2)), forms.differential(X3)
    first = forms.wedge11(d1, d3)
    first.coefficients[1].clear()
    # d(x1x2)∧dx3 = x2·dx1∧dx3 + x1·dx2∧dx3, whatever the caller did before
    assert forms.wedge11(d1, d3).coefficients == ({}, X2, X1)
    d1.coefficients[0].clear()  # d1 is now x1·dx2
    assert forms.wedge11(d1, d3).coefficients == ({}, {}, X1)


# -- degrees ------------------------------------------------------------------


def test_zero_forms_have_no_degree():
    assert forms.deg_form(forms.zero_one_form()) is None
    assert forms.deg_form(forms.TwoForm(({}, {}, {}))) is None
    assert forms.deg_form(forms.ThreeForm({})) is None


@given(polys)
def test_degree_of_differential_equals_degree(p):
    assume(poly.deg(p) not in (None, (0, 0, 0)))
    assert forms.deg_form(forms.differential(p)) == poly.deg(p)


@settings(max_examples=60, deadline=None)
@given(one_forms, one_forms)
def test_wedge_degree_is_subadditive(a, b):
    da, db = forms.deg_form(a), forms.deg_form(b)
    assume(da is not None and db is not None)
    dw = forms.deg_form(forms.wedge11(a, b))
    assert dw is None or poly.mdeg_le(dw, poly.mdeg_add(da, db))


@given(polys, one_forms)
def test_scaling_adds_degrees(g, w):
    assume(not poly.is_zero(g))
    assume(forms.deg_form(w) is not None)
    expected = poly.mdeg_add(poly.deg(g), forms.deg_form(w))
    assert forms.deg_form(forms.scale_form(g, w)) == expected


def test_basis_monomial_degrees():
    d1 = forms.differential(X1)
    assert forms.deg_form(d1) == (1, 0, 0)
    w = forms.wedge11(d1, forms.differential(X3))
    assert forms.deg_form(w) == (1, 0, 1)
    top = forms.wedge21(
        forms.wedge11(d1, forms.differential(X2)), forms.differential(X3)
    )
    assert forms.deg_form(top) == (1, 1, 1)


@settings(max_examples=300, deadline=None)
@given(wedge_inputs())
@example((poly.add(poly.mul(X1, X1), X2), poly.mul(X1, X1)))
@example((X1, poly.mul(X1, X1)))
@example((X1, X2, poly.mul(X1, X2)))
@example((P((3, 0, 0, 0)),))
@example((X1, poly.add(X1, P((1, 0, 0, 0))), X3))
@example(CUBIC.components)
@example(QUINTIC.components)
@example(NAGATA.components)
@example(CUBIC.components[:2])
@example(QUINTIC.components[1:])
@example(NAGATA.components[::2])
def test_wedge_degree_equals_the_degree_of_the_raw_wedge(fs):
    ds = [forms.differential(f) for f in fs]
    w = ds[0]
    if len(ds) >= 2:
        w = forms.wedge11(w, ds[1])
    if len(ds) == 3:
        w = forms.wedge21(w, ds[2])
    assert forms.wedge_degree(*fs) == forms.deg_form(w)


# -- algebraic independence ---------------------------------------------------


def test_coordinates_are_independent():
    assert forms.independent(X1)
    assert forms.independent(X1, X2)
    assert forms.independent(X1, X2, X3)
    assert forms.independent(poly.add(X1, X2), X2, X3)


def test_dependence_is_detected():
    assert not forms.independent(P((3, 0, 0, 0)))
    assert not forms.independent(X1, poly.mul(X1, X1))
    # f, g, f·g are algebraically dependent
    f = poly.add(X1, poly.mul(X2, X2))
    g = poly.add(X2, X3)
    assert not forms.independent(f, g, poly.mul(f, g))


def test_reduction_targets_inherit_independence():
    # targets are built without an independence check: their 3-form is the
    # source's, so each must still pass one
    for seed in range(12):
        path = reduction_path(eval_word(gen_tame(GeneratorSpec(seed=seed, length=8))))
        for step in path.steps:
            for u in (step.target, step.auxiliary):
                if u is not None:
                    assert forms.independent(*u.representative), f"seed {seed}"


def test_independence_arity_is_checked():
    with pytest.raises(ValueError):
        forms.independent()
    with pytest.raises(ValueError):
        forms.independent(X1, X1, X2, X3)


# -- the residue fast path and its exact fallback ------------------------------


def _exact(*fs):
    return forms.wedge_degree(*fs) is not None


def test_a_jacobian_vanishing_at_the_residue_point_falls_back():
    # Jacobian x1 − a: nonzero, but zero at the fixed point
    a = forms._POINT[0]
    fs = (X1, X2, poly.mul(X3, poly.add(X1, poly.const(-a))))
    assert not forms._residue_minor_nonzero(fs)
    assert forms.independent(*fs) and _exact(*fs)


def test_a_denominator_divisible_by_the_prime_falls_back():
    inv_p = F(1, forms._P)
    for fs in (
        (poly.add(X1, P((inv_p, 0, 1, 0))), X2, X3),  # independent
        (P((inv_p, 1, 0, 0)), poly.mul(X1, X1), X3),  # dependent
    ):
        assert forms._jacobian_residue(fs) is None
        assert forms.independent(*fs) == _exact(*fs)
    assert forms.independent(poly.add(X1, P((inv_p, 0, 1, 0))), X2, X3)


def test_dependent_tuples_reach_the_exact_verdict():
    s = poly.add(X1, X2)
    for fs in (
        (X1, poly.mul(X1, X1), X3),
        (s, poly.mul(s, s), X3),
        (X1, poly.p_pow(X1, 3)),
    ):
        assert not forms._residue_minor_nonzero(fs)
        assert not forms.independent(*fs) and not _exact(*fs)


def test_a_non_constant_jacobian_is_still_independent():
    fs = (poly.mul(X1, X1), X2, X3)
    assert forms._residue_minor_nonzero(fs)
    assert forms.independent(*fs)
    assert forms.wedge_degree(*fs) == (2, 1, 1)


@st.composite
def planted_inputs(draw):
    """1–3 polynomials; a third one is sometimes P(f1, f2) for a drawn P."""
    fs = draw(wedge_inputs())
    if len(fs) == 3 and draw(st.booleans()):
        bipoly = draw(
            st.dictionaries(
                st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)),
                coeffs,
                max_size=4,
            )
        )
        fs = (fs[0], fs[1], poly.substitute({e: c for e, c in bipoly.items() if c}, fs))
    return fs


@settings(max_examples=300, deadline=None)
@given(planted_inputs())
def test_independence_is_the_exact_wedge_verdict(fs):
    assert forms.independent(*fs) == _exact(*fs)


def test_automorphism_components_have_unit_jacobian_degree():
    # components of any polynomial automorphism wedge to a nonzero constant
    for f in (NAGATA, CUBIC):
        f1, f2, f3 = f.components
        d1, d2, d3 = (forms.differential(c) for c in (f1, f2, f3))
        top = forms.wedge21(forms.wedge11(d1, d2), d3)
        assert forms.deg_form(top) == (1, 1, 1)


def test_wedge_degrees_of_nagata_map():
    f1, f2, f3 = NAGATA.components
    d1, d2, d3 = (forms.differential(c) for c in (f1, f2, f3))
    assert forms.deg_form(forms.wedge11(d1, d2)) == (3, 0, 5)
    assert forms.deg_form(forms.wedge11(d1, d3)) == (2, 0, 4)
    assert forms.deg_form(forms.wedge11(d2, d3)) == (1, 0, 3)

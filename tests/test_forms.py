"""Differential forms: exterior derivative, wedges, degrees, independence."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tame3 import forms, poly
from tame3.reduction import reduction_path
from tame3.vertices import eval_word
from tame3.wordgen import GeneratorSpec, gen_tame

from fixtures import CUBIC, NAGATA, P, X1, X2, X3

coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: {e: c for e, c in d.items() if c}
)
one_forms = st.tuples(polys, polys, polys).map(forms.OneForm)


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


@settings(max_examples=60)
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

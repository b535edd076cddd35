"""Virtual degrees, multiplicity, parachute and two-maxima checks, resonance."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tame3 import analysis, forms, poly
from tame3.errors import DependentInputs, EmptyInput, ZeroPolynomial

from fixtures import CUBIC, NAGATA, P, QUINTIC, X1, X2, X3
from oracles import (
    derivative_multiplicity,
    naive_curry_y,
    naive_eval_y,
    root_order,
    y_mul,
)

ONE = P((1, 0, 0, 0))

coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda d: {e: c for e, c in d.items() if c}
)
y_polys = st.dictionaries(st.integers(0, 3), polys, max_size=3).map(analysis.y_poly)
bipolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs, max_size=3
)


# -- y-polynomials ------------------------------------------------------------


def test_y_poly_drops_zero_coefficients():
    assert analysis.y_poly({3: X1, 1: {}, 0: ONE}) == {3: X1, 0: ONE}
    assert analysis.y_poly({}) == {}


@given(y_polys, polys)
def test_eval_y_matches_naive_expansion(phi, g):
    assert analysis.eval_y(phi, g) == naive_eval_y(phi, g)


def test_eval_y_of_zero_is_zero():
    assert analysis.eval_y({}, X1) == {}


def test_curry_and_eval_yz():
    # φ(y, z) = y² + 3yz − z³ at (g, h) = (x1, x2)
    phi = {(2, 0): F(1), (1, 1): F(3), (0, 3): F(-1)}
    assert naive_curry_y(phi, X2) == {
        2: ONE,
        1: P((3, 0, 1, 0)),
        0: P((-1, 0, 3, 0)),
    }
    expected = P((1, 2, 0, 0), (3, 1, 1, 0), (-1, 0, 3, 0))
    assert analysis.eval_yz(phi, X1, X2) == expected


@given(bipolys, polys, polys)
def test_eval_yz_matches_naive_curry(phi, g, h):
    assert analysis.eval_yz(phi, g, h) == naive_eval_y(naive_curry_y(phi, h), g)


def test_bipoly_is_affine():
    assert analysis.bipoly_is_affine({(1, 0): F(2), (0, 1): F(1), (0, 0): F(5)})
    assert not analysis.bipoly_is_affine({(1, 1): F(1)})
    assert not analysis.bipoly_is_affine({(0, 2): F(1)})


# -- virtual degree and top component -----------------------------------------


@given(y_polys, polys)
def test_virtual_degree_bounds_actual_degree(phi, g):
    assume(phi and g)
    vd = analysis.virtual_degree_y(phi, g)
    d = poly.deg(analysis.eval_y(phi, g))
    assert d is None or poly.mdeg_le(d, vd)


def test_virtual_degree_of_pure_power():
    g = P((1, 1, 2, 0), (1, 0, 0, 1))
    assert analysis.virtual_degree_y({3: ONE}, g) == poly.deg(poly.p_pow(g, 3))


@given(y_polys, polys)
def test_virtual_degree_yz_matches_curried_for_monomial_h(phi_y, g):
    assume(phi_y and g)
    # with a monomial h the curried coefficients cannot cancel
    h = P((2, 1, 0, 1))
    phi = {(i, j): F(1) for i in phi_y for j in range(2)}
    assert analysis.virtual_degree_yz(phi, g, h) == analysis.virtual_degree_y(
        naive_curry_y(phi, h), g
    )


def test_virtual_degree_rejects_degenerate_inputs():
    with pytest.raises(EmptyInput):
        analysis.virtual_degree_y({}, X1)
    with pytest.raises(ZeroPolynomial):
        analysis.virtual_degree_y({1: ONE}, {})
    with pytest.raises(EmptyInput):
        analysis.virtual_degree_yz({}, X1, X2)
    with pytest.raises(ZeroPolynomial):
        analysis.virtual_degree_yz({(1, 0): F(1)}, X1, {})


def test_top_component_selects_top_indices():
    # φ = y² − x2⁴ with g = x2² + x3: both indices reach the virtual degree
    phi = {2: ONE, 0: P((-1, 0, 4, 0))}
    g = P((1, 0, 2, 0), (1, 0, 0, 1))
    assert analysis.top_component(phi, g) == {
        2: {(0, 0, 0): F(1)},
        0: {(0, 4, 0): F(-1)},
    }
    # raising the x3 part of g above x2² shifts the top to y² alone
    g2 = P((1, 0, 2, 0), (1, 0, 0, 3))
    assert analysis.top_component(phi, g2) == {2: {(0, 0, 0): F(1)}}


# -- multiplicity -------------------------------------------------------------


def test_multiplicity_of_simple_cancellation():
    phi = {2: ONE, 0: P((-1, 0, 4, 0))}
    g = P((1, 0, 2, 0), (1, 0, 0, 1))
    # φ(g) = 2x2²x3 + x3² drops strictly below the virtual degree (0,4,0)
    assert poly.deg(analysis.eval_y(phi, g)) == (0, 2, 1)
    assert analysis.virtual_degree_y(phi, g) == (0, 4, 0)
    assert analysis.multiplicity(phi, g) == 1


def test_multiplicity_zero_without_cancellation():
    assert analysis.multiplicity({2: ONE, 1: X3}, X1) == 0


def test_multiplicity_of_planted_roots():
    g = P((1, 0, 2, 0), (1, 0, 0, 1))
    gbar = {(0, 2, 0): F(1)}
    factor = {1: ONE, 0: poly.neg(gbar)}  # y − ḡ
    psi = {1: ONE, 0: X1}
    phi = psi
    for k in (1, 2, 3):
        phi = y_mul(phi, factor)
        assert analysis.multiplicity(phi, g) == k
        assert root_order(phi, g) == k
        assert derivative_multiplicity(phi, g) == k


def test_multiplicity_matches_root_order_on_random_inputs():
    rng = random.Random(7)

    def rand_poly(max_terms):
        p = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            e = tuple(rng.randrange(4) for _ in range(3))
            c = F(rng.randrange(-6, 7), rng.randrange(1, 4))
            if c:
                p[e] = c
        return p

    checked = 0
    while checked < 40:
        g = rand_poly(3)
        if not g or poly.deg(g) == (0, 0, 0):
            continue
        phi = analysis.y_poly(
            {i: rand_poly(3) for i in rng.sample(range(5), rng.randrange(1, 4))}
        )
        if not phi:
            continue
        m = analysis.multiplicity(phi, g)
        assert m == root_order(phi, g) == derivative_multiplicity(phi, g)
        checked += 1


def test_multiplicity_rejects_degenerate_inputs():
    with pytest.raises(EmptyInput):
        analysis.multiplicity({}, X1)
    with pytest.raises(ZeroPolynomial):
        analysis.multiplicity({1: ONE}, ONE)
    with pytest.raises(ZeroPolynomial):
        analysis.multiplicity({1: ONE}, {})
    # a zero coefficient stored in the top component raises instead of looping
    with pytest.raises(EmptyInput):
        analysis.multiplicity({1: {(1, 0, 0): F(0)}}, X1)


# -- Parachute Inequality -----------------------------------------------------


def test_parachute_without_drop():
    report = analysis.parachute_check([X1, X2], {2: ONE})
    assert report.multiplicity == 0
    assert report.lhs == report.virtual == (2, 0, 0)
    assert report.holds


def test_parachute_with_strict_drop():
    # φ(f1) = (x1 + x2²) − x2² = x1 cancels the whole top of f1
    f1 = P((1, 1, 0, 0), (1, 0, 2, 0))
    phi = {1: ONE, 0: P((-1, 0, 2, 0))}
    report = analysis.parachute_check([f1, X2], phi)
    assert report.virtual == (0, 2, 0)
    assert report.lhs == (1, 0, 0)
    assert poly.mdeg_gt(report.virtual, report.lhs)
    assert report.multiplicity == 1
    assert report.rhs == (1, 0, 0)
    assert report.holds


def test_parachute_with_three_components():
    report = analysis.parachute_check(list(NAGATA.components), {2: ONE, 0: X3})
    assert report.multiplicity == 0
    assert report.lhs == report.virtual
    assert report.holds


def test_parachute_input_validation():
    with pytest.raises(ValueError):
        analysis.parachute_check([X1], {1: ONE})
    with pytest.raises(EmptyInput):
        analysis.parachute_check([X1, X2], {})
    with pytest.raises(DependentInputs):
        analysis.parachute_check([X1, poly.scale(2, X1)], {1: ONE})
    with pytest.raises(DependentInputs):
        analysis.parachute_check([X1, X2, poly.add(X1, X2)], {1: ONE})


@settings(max_examples=60, deadline=None)
@given(polys, polys, bipolys, st.integers(0, 2), coeffs, st.integers(0, 2))
def test_parachute_agrees_with_multiplicity_and_evaluation(h, f2, bi, k, c, e):
    # f1 = h + c·f2^k, and φ carries (y − c·f2^k)^e on top of a factor in
    # k[f2], so strict virtual drops occur; every coefficient lies in k[f2]
    planted = poly.scale(c, poly.p_pow(f2, k))
    f1 = poly.add(h, planted)
    phi = naive_curry_y(bi, f2)
    for _ in range(e):
        phi = y_mul(phi, {1: ONE, 0: poly.neg(planted)})
    assume(phi and forms.independent(f1, f2))
    report = analysis.parachute_check([f1, f2], phi)
    assert report.multiplicity == analysis.multiplicity(phi, f1)
    assert report.lhs == poly.deg(naive_eval_y(phi, f1))


def test_parachute_evaluates_phi_only_on_a_drop(monkeypatch):
    # m = 0 means φ(f1) attains its virtual degree, so nothing is evaluated
    def refuse(phi, g):
        raise AssertionError("eval_y called without a drop")

    monkeypatch.setattr(analysis, "eval_y", refuse)
    report = analysis.parachute_check([X1, X2], {2: ONE})
    assert report == analysis.ParachuteReport(
        lhs=(2, 0, 0), rhs=(2, 0, 0), multiplicity=0, virtual=(2, 0, 0)
    )
    # a planted drop (m = 1) still reads lhs off the evaluation
    calls = []

    def record(phi, g):
        calls.append(phi)
        return naive_eval_y(phi, g)

    monkeypatch.setattr(analysis, "eval_y", record)
    f1 = P((1, 1, 0, 0), (1, 0, 2, 0))
    report = analysis.parachute_check([f1, X2], {1: ONE, 0: P((-1, 0, 2, 0))})
    assert report.multiplicity == 1 and report.lhs == (1, 0, 0)
    assert len(calls) == 1


# -- Principle of Two Maxima --------------------------------------------------


def test_two_maxima_on_identity():
    report = analysis.two_maxima_check((X1, X2, X3))
    assert report.quantities == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert report.maximum == (1, 1, 1)
    assert report.attained == 3
    assert report.ok


def test_two_maxima_on_nagata_map():
    report = analysis.two_maxima_check(NAGATA)
    assert report.quantities == ((3, 0, 6), (3, 0, 6), (3, 0, 6))
    assert report.attained == 3


def test_two_maxima_on_tame_fixtures():
    for f in (CUBIC, QUINTIC):
        report = analysis.two_maxima_check(f)
        assert report.ok
        assert report.maximum == poly.mdeg_max(*report.quantities)


# -- degree resonance ---------------------------------------------------------


def test_pq_resonance_finds_commensurable_degrees():
    assert analysis.pq_resonance((4, 0, 0), (2, 0, 0)) == (1, 2, (2, 0, 0))
    assert analysis.pq_resonance((6, 0, 0), (4, 0, 0)) == (2, 3, (2, 0, 0))
    assert analysis.pq_resonance((2, 0, 3), (2, 0, 3)) == (1, 1, (2, 0, 3))
    assert analysis.pq_resonance((3, 0, 6), (1, 0, 2)) == (1, 3, (1, 0, 2))


def test_pq_resonance_rejects_independent_degrees():
    assert analysis.pq_resonance((2, 1, 0), (1, 1, 0)) is None
    assert analysis.pq_resonance((0, 0, 0), (1, 0, 0)) is None
    assert analysis.pq_resonance((1, 0, 0), (0, 0, 0)) is None


def test_nat_multiple():
    assert analysis.nat_multiple((1, 0, 2), (3, 0, 6)) == 3
    assert analysis.nat_multiple((1, 0, 2), (1, 0, 2)) == 1
    assert analysis.nat_multiple((1, 0, 2), (2, 0, 3)) is None
    assert analysis.nat_multiple((0, 0, 0), (0, 0, 0)) == 0
    assert analysis.nat_multiple((0, 0, 0), (1, 0, 0)) is None


def test_nat_combination():
    assert analysis.nat_combination((7, 0, 0), (2, 0, 0), (3, 0, 0)) == (2, 1)
    assert analysis.nat_combination((0, 0, 0), (2, 0, 0), (3, 0, 0)) == (0, 0)
    assert analysis.nat_combination((1, 0, 1), (2, 0, 0), (0, 0, 3)) is None
    with pytest.raises(ValueError):
        analysis.nat_combination((1, 0, 0), (0, 0, 0), (1, 0, 0))

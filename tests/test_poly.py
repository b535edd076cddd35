"""Core polynomial arithmetic against the naive oracle and the ring laws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tame3 import poly
from tame3.errors import DegreeOverflow, ZeroPolynomial

from fixtures import P, X1, X2, X3
from oracles import naive_mul, naive_pow, naive_substitute, top_form

coeffs = st.builds(F, st.integers(-50, 50), st.integers(1, 20))
exponents = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
polys = st.dictionaries(exponents, coeffs, max_size=8).map(
    lambda d: {e: c for e, c in d.items() if c}
)
# substitution expands monomials of the outer polynomial into full products;
# keep those inputs small so the naive oracle stays honest but affordable
small_exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
small_polys = st.dictionaries(small_exponents, coeffs, max_size=4).map(
    lambda d: {e: c for e, c in d.items() if c}
)


# --- constructors and basics ----------------------------------------------

def test_zero_and_const():
    assert poly.zero() == {}
    assert poly.is_zero({})
    assert poly.const(F(0)) == {}
    assert poly.const(F(3, 2)) == {(0, 0, 0): F(3, 2)}


def test_variable():
    assert poly.variable(1) == X1
    assert poly.variable(2) == X2
    assert poly.variable(3) == X3
    with pytest.raises(ValueError):
        poly.variable(4)


def test_monomial_and_top_term():
    m = poly.monomial((2, 0, 1), F(5))
    assert m == {(2, 0, 1): F(5)}
    t = poly.top_term(P((1, 1, 0, 0), (2, 0, 3, 0)))
    assert t.exponents == (0, 3, 0) and t.coefficient == F(2)
    with pytest.raises(ZeroPolynomial):
        poly.top_term({})


def test_deg_examples():
    assert poly.deg({}) is None
    assert poly.deg(poly.const(F(7))) == (0, 0, 0)
    assert poly.deg(P((1, 1, 0, 0), (1, 0, 2, 0))) == (0, 2, 0)
    # graded first, then lexicographic
    assert poly.deg(P((1, 2, 0, 1), (1, 0, 3, 0))) == (2, 0, 1)


def test_sorted_terms_descending():
    p = P((1, 0, 0, 1), (1, 2, 0, 0), (1, 1, 1, 0))
    exps = [e for e, _ in poly.sorted_terms(p)]
    assert exps == [(2, 0, 0), (1, 1, 0), (0, 0, 1)]


# --- multidegree order ----------------------------------------------------

def test_mdeg_order_basics():
    assert poly.mdeg_lt(None, (0, 0, 0))
    assert not poly.mdeg_lt(None, None)
    assert poly.mdeg_le(None, None)
    assert poly.mdeg_lt((0, 2, 0), (1, 1, 0))  # same total, lex decides
    assert poly.mdeg_lt((2, 0, 0), (0, 3, 0))  # total decides first
    assert poly.mdeg_max((1, 0, 0), None, (0, 2, 0)) == (0, 2, 0)
    assert poly.mdeg_add((1, 2, 0), (0, 1, 3)) == (1, 3, 3)
    assert poly.mdeg_add(None, (1, 0, 0)) is None
    assert poly.mdeg_sub((1, 2, 3), (0, 1, 1)) == (1, 1, 2)
    assert poly.mdeg_scale(3, (1, 0, 2)) == (3, 0, 6)


def test_grlex_key_sorts_like_cmp():
    ds = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 0, 2)]
    by_key = sorted(ds, key=poly.grlex_key)
    for a, b in zip(by_key, by_key[1:]):
        assert poly.mdeg_cmp(a, b) < 0


# --- arithmetic against the oracle ----------------------------------------

@given(polys, polys)
def test_mul_matches_naive(a, b):
    assert poly.mul(a, b) == naive_mul(a, b)


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert poly.add(a, b) == poly.add(b, a)
    assert poly.mul(a, b) == poly.mul(b, a)
    assert poly.add(poly.add(a, b), c) == poly.add(a, poly.add(b, c))
    assert poly.mul(poly.mul(a, b), c) == poly.mul(a, poly.mul(b, c))
    assert poly.mul(a, poly.add(b, c)) == poly.add(poly.mul(a, b), poly.mul(a, c))
    assert poly.sub(a, a) == {}
    assert poly.add(a, poly.neg(a)) == {}


@given(polys, polys)
def test_degree_of_product(a, b):
    # exact coefficients over a field: degrees are additive
    assert poly.deg(poly.mul(a, b)) == poly.mdeg_add(poly.deg(a), poly.deg(b))


@given(polys, st.integers(0, 5))
def test_p_pow_matches_naive(a, k):
    assert poly.p_pow(a, k) == naive_pow(a, k)


@given(polys)
def test_scale(a):
    assert poly.scale(F(0), a) == {}
    assert poly.scale(F(1), a) == a
    assert poly.scale(F(-2, 3), poly.scale(F(-3, 2), a)) == a


@settings(deadline=None, max_examples=50)
@given(small_polys, st.tuples(small_polys, small_polys, small_polys))
def test_substitute_matches_naive(p, targets):
    assert poly.substitute(p, targets) == naive_substitute(p, targets)


def test_substitute_identity_and_shift():
    p = P((2, 2, 1, 0), (-1, 0, 0, 3))
    assert poly.substitute(p, (X1, X2, X3)) == p
    shifted = poly.substitute(X1, (poly.add(X1, X2), X2, X3))
    assert shifted == P((1, 1, 0, 0), (1, 0, 1, 0))


@given(polys)
def test_top_term_is_top_form(p):
    if not p:
        return
    t = poly.top_term(p)
    assert {t.exponents: t.coefficient} == top_form(p)


def test_derivative():
    p = P((1, 2, 1, 0), (3, 0, 0, 2))
    assert poly.derivative(p, 1) == P((2, 1, 1, 0))
    assert poly.derivative(p, 3) == P((6, 0, 0, 1))
    assert poly.derivative(poly.const(F(4)), 2) == {}


def test_degree_cap_raises():
    big = {(poly.MAX_TOTAL_DEGREE, 0, 0): F(1)}
    with pytest.raises(DegreeOverflow):
        poly.mul(big, big)


def test_equal_is_dict_equality_on_canonical_form():
    # representations are canonical (no stored zeros), so equality is plain
    assert poly.equal(P((1, 1, 0, 0)), {(1, 0, 0): F(1)})
    assert not poly.equal(P((1, 1, 0, 0)), {})


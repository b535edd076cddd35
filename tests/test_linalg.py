"""The shared exact elimination: nullspaces, solves and good representatives
against minor ranks and the sort-and-collide reference."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tame3 import linalg, poly
from tame3.errors import DegenerateTuple

import oracles

INTS = range(4)
TRIPLES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0))
MAX_COLUMNS = 6

nonzero = st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 3))


def sparse(rows):
    return st.dictionaries(st.sampled_from(rows), nonzero, max_size=3)


def _coefficients(n):
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n)


@st.composite
def _echelon_polys(draw):
    """1–2 polynomials over TRIPLES with distinct monic tops and no constant."""
    tops = draw(st.lists(st.sampled_from(TRIPLES[1:]), min_size=1, max_size=2, unique=True))
    out = []
    for t in tops:
        below = [e for e in TRIPLES[1:] if poly.grlex_key(e) < poly.grlex_key(t)]
        tail = draw(st.dictionaries(st.sampled_from(below), nonzero, max_size=2)) if below else {}
        out.append({**tail, t: F(1)})
    return out


@st.composite
def column_families(draw):
    """Row keys (ints or exponent triples) and 0–6 sparse columns.

    On triples the family may open like ``_span_intersection``'s columns:
    canonical a, the constant 1, −b for canonical b, the constant −1.  The
    rest are drawn or are combinations of earlier columns.
    """
    rows = draw(st.sampled_from([INTS, TRIPLES]))
    cols = []
    if rows is TRIPLES and draw(st.booleans()):
        cols += draw(_echelon_polys()) + [{(0, 0, 0): F(1)}]
        cols += [{e: -c for e, c in p.items()} for p in draw(_echelon_polys())]
        cols += [{(0, 0, 0): F(-1)}]
    for _ in range(draw(st.integers(0, MAX_COLUMNS - len(cols)))):
        if cols and draw(st.booleans()):
            cols.append(_combine(cols, draw(_coefficients(len(cols)))))
        else:
            cols.append(draw(sparse(rows)))
    return rows, cols


def _combine(cols, coeffs):
    out = {}
    for c, col in zip(coeffs, cols):
        for k, v in col.items():
            out[k] = out.get(k, F(0)) + c * v
    return {k: v for k, v in out.items() if v}


@settings(max_examples=150, deadline=None)
@given(column_families())
def test_nullspace_is_a_basis_of_the_solutions(family):
    _, cols = family
    basis = linalg.nullspace(cols)
    n = len(cols)
    for vec in basis:
        assert len(vec) == n
        assert _combine(cols, vec) == {}
    assert len(basis) == n - oracles.rank(cols)
    assert oracles.rank([dict(enumerate(vec)) for vec in basis]) == len(basis)


@settings(max_examples=150, deadline=None)
@given(column_families(), st.data())
def test_solve_exact_solves_or_reports_inconsistency(family, data):
    rows, cols = family
    rhs = data.draw(
        st.one_of(
            sparse(rows),
            _coefficients(len(cols)).map(lambda c: _combine(cols, c)),
        )
    )
    x = linalg.solve_exact(cols, rhs)
    rank = oracles.rank(cols)
    if x is None:
        assert oracles.rank(cols + [rhs]) > rank
        return
    assert oracles.rank(cols + [rhs]) == rank
    assert _combine(cols, x) == rhs
    for c in range(len(cols)):
        # column c is free when it lies in the span of the columns before it
        if oracles.rank(cols[: c + 1]) == oracles.rank(cols[:c]):
            assert x[c] == 0


def test_all_zero_family_gives_the_standard_basis():
    assert linalg.nullspace([{}, {}, {}]) == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]


def test_inconsistent_two_by_one_system_has_no_solution():
    # x·(1, 1) = (1, 2)
    assert linalg.solve_exact([{0: F(1), 1: F(1)}], {0: F(1), 1: F(2)}) is None
    assert linalg.solve_exact([{0: F(1), 1: F(1)}], {0: F(3), 1: F(3)}) == [F(3)]


# -- good representatives ------------------------------------------------------

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    nonzero,
    min_size=1,
    max_size=3,
)

SHAPES = ("fresh", "shared top", "shared top", "shared top", "multiple", "constant")


@st.composite
def colliding_tuples(draw):
    """1–3 components; each after the first is fresh or built from a
    combination of the earlier ones: with terms added below its top (a
    shared top degree), as it is (a multiple), or plus a constant."""
    comps = [draw(small_polys)]
    for _ in range(draw(st.integers(0, 2))):
        shape = draw(st.sampled_from(SHAPES))
        if shape == "fresh":
            comps.append(draw(small_polys))
            continue
        p = _combine(comps, draw(_coefficients(len(comps))))
        if shape == "shared top" and p:
            below = poly.grlex_key(poly.deg(p))
            extra = draw(small_polys)
            p = poly.add(p, {e: c for e, c in extra.items() if poly.grlex_key(e) < below})
        elif shape == "constant":
            p = poly.add(p, poly.const(draw(nonzero)))
        comps.append(p)
    return tuple(comps)


@settings(max_examples=500, deadline=None)
@given(colliding_tuples())
def test_good_representative_matches_sort_and_collide(comps):
    try:
        expected = oracles.sort_and_collide(comps)
    except DegenerateTuple as exc:
        with pytest.raises(DegenerateTuple, match=str(exc)):
            linalg.good_representative(comps)
        return
    assert linalg.good_representative(comps) == expected


# -- affine coordinates by equality --------------------------------------------


@settings(max_examples=200, deadline=None)
@given(colliding_tuples(), st.data())
def test_a_basis_component_is_its_own_unit_vector(comps, data):
    try:
        basis = linalg.good_representative(comps)
    except DegenerateTuple:
        return
    i = data.draw(st.integers(0, len(basis) - 1))
    # equal by value, a distinct dict, integral values sometimes as int
    as_int = data.draw(st.booleans())
    target = {e: int(c) if as_int and c.denominator == 1 else c for e, c in basis[i].items()}
    coords = linalg.affine_coordinates(basis, target)
    assert coords == [F(int(j == i)) for j in range(len(basis))] + [F(0)]
    rebuilt = poly.const(coords[-1])
    for c, b in zip(coords, basis):
        rebuilt = poly.add(rebuilt, poly.scale(c, b))
    assert rebuilt == target
    columns = list(basis) + [poly.const(1)]
    assert oracles.rank(columns + [target]) == oracles.rank(columns)
    # a monomial in no basis support takes the target out of the span
    extra = data.draw(st.sampled_from([(0, 0, 2), (1, 0, 1), (0, 1, 1), (3, 0, 0)]))
    if all(extra not in b for b in basis):
        outsider = poly.add(target, poly.monomial(extra))
        assert oracles.rank(columns + [outsider]) > oracles.rank(columns)
        assert linalg.affine_coordinates(basis, outsider) is None

"""The shared exact elimination: nullspaces and solves against a minor-rank oracle."""

from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from tame3 import linalg

ROWS = range(4)

nonzero = st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 3))
sparse = st.dictionaries(st.sampled_from(ROWS), nonzero, max_size=3)


def _coefficients(n):
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n)


@st.composite
def column_families(draw):
    """0–4 sparse columns, some of them combinations of earlier ones."""
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        if cols and draw(st.booleans()):
            cols.append(_combine(cols, draw(_coefficients(len(cols)))))
        else:
            cols.append(draw(sparse))
    return cols


def _combine(cols, coeffs):
    out = {}
    for c, col in zip(coeffs, cols):
        for k, v in col.items():
            out[k] = out.get(k, F(0)) + c * v
    return {k: v for k, v in out.items() if v}


def _det(m):
    if not m:
        return F(1)
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _rank(vectors, keys):
    """Largest k with a nonzero k×k minor (vectors as columns)."""
    m = [[v.get(k, F(0)) for v in vectors] for k in keys]
    for k in range(min(len(m), len(vectors)), 0, -1):
        for rs in combinations(range(len(m)), k):
            for cs in combinations(range(len(vectors)), k):
                if _det([[m[r][c] for c in cs] for r in rs]):
                    return k
    return 0


@settings(max_examples=150, deadline=None)
@given(column_families())
def test_nullspace_is_a_basis_of_the_solutions(cols):
    basis = linalg.nullspace(cols)
    n = len(cols)
    for vec in basis:
        assert len(vec) == n
        assert _combine(cols, vec) == {}
    assert len(basis) == n - _rank(cols, ROWS)
    assert _rank([dict(enumerate(vec)) for vec in basis], range(n)) == len(basis)


@settings(max_examples=150, deadline=None)
@given(column_families(), st.data())
def test_solve_exact_solves_or_reports_inconsistency(cols, data):
    rhs = data.draw(
        st.one_of(
            sparse,
            _coefficients(len(cols)).map(lambda c: _combine(cols, c)),
        )
    )
    x = linalg.solve_exact(cols, rhs)
    rank = _rank(cols, ROWS)
    if x is None:
        assert _rank(cols + [rhs], ROWS) > rank
        return
    assert _rank(cols + [rhs], ROWS) == rank
    assert _combine(cols, x) == rhs
    for c in range(len(cols)):
        # column c is free when it lies in the span of the columns before it
        if _rank(cols[: c + 1], ROWS) == _rank(cols[:c], ROWS):
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

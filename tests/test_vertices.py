"""Tame words, canonical representatives, vertex equality, lines, neighbors."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tame3 import linalg, poly, vertices
from tame3.errors import (
    AffineP,
    DegenerateTuple,
    DegreeOverflow,
    DependentInputs,
    NotAnAutomorphism,
    NotIncident,
    SingularAffine,
    WitnessMismatch,
)
from tame3.wordgen import GeneratorSpec, gen_tame

import oracles
from fixtures import CUBIC, NAGATA, P, QUINTIC, X1, X2, X3

ONE = P((1, 0, 0, 0))

coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, min_size=1, max_size=4).map(
    lambda d: {e: c for e, c in d.items() if c}
)

small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
points = st.tuples(small, small, small)
affine_factors = st.builds(
    vertices.affine,
    st.tuples(points, points, points).filter(lambda m: linalg.det3(m) != 0),
    points,
)


@st.composite
def elementary_factors(draw):
    i = draw(st.integers(1, 3))
    free = st.tuples(*(st.just(0) if t == i - 1 else st.integers(0, 2) for t in range(3)))
    p = draw(st.dictionaries(free, coeffs, min_size=1, max_size=3))
    return vertices.elementary(i, {e: c for e, c in p.items() if c})


def words(max_generated: int):
    """Hand-built words (shifted, rational, non-diagonal affine factors in any
    order) and generated ones (alternating kinds, strictly growing degrees)."""
    return st.one_of(
        st.lists(st.one_of(affine_factors, elementary_factors()), max_size=4).map(
            lambda fs: vertices.TameWord(tuple(fs))
        ),
        st.builds(
            lambda seed, n: gen_tame(GeneratorSpec(seed, n, coeff_bound=3)),
            st.integers(0, 10**6),
            st.integers(0, max_generated),
        ),
    )


# -- factors and words --------------------------------------------------------


def test_affine_factor_validation():
    with pytest.raises(ValueError):
        vertices.affine(((1, 0), (0, 1)), (0, 0))
    with pytest.raises(SingularAffine):
        vertices.affine(((1, 0, 0), (2, 0, 0), (0, 0, 1)), (0, 0, 0))


def test_elementary_factor_validation():
    with pytest.raises(ValueError):
        vertices.elementary(4, P((1, 0, 2, 0)))
    with pytest.raises(ValueError):
        vertices.elementary(2, P((1, 0, 1, 0)))  # p involves x2
    e = vertices.elementary(2, P((1, 0, 0, 2)))
    assert e.components() == (X1, poly.add(X2, P((1, 0, 0, 2))), X3)


def test_eval_word_applies_factors_outermost_first():
    w = vertices.TameWord(
        (
            vertices.elementary(1, P((1, 0, 2, 0))),
            vertices.elementary(2, P((2, 0, 0, 1))),
        )
    )
    f = vertices.eval_word(w)
    assert f.components == (
        P((1, 1, 0, 0), (1, 0, 2, 0), (4, 0, 1, 1), (4, 0, 0, 2)),
        P((1, 0, 1, 0), (2, 0, 0, 1)),
        X3,
    )
    assert f.witness is w


def test_eval_word_rejects_singular_affine():
    m = tuple(tuple(F(a) for a in row) for row in ((1, 0, 0), (1, 0, 0), (0, 0, 1)))
    bad = vertices.Affine(m, (F(0), F(0), F(0)))
    with pytest.raises(SingularAffine):
        vertices.eval_word(vertices.TameWord((bad,)))


def test_identity_automorphism():
    f = vertices.identity_automorphism()
    assert f.components == (X1, X2, X3)
    assert f.witness == vertices.TameWord(())


def test_compose_concatenates_witnesses():
    w1 = vertices.TameWord((vertices.elementary(1, P((1, 0, 2, 0))),))
    w2 = vertices.TameWord((vertices.elementary(3, P((1, 2, 0, 0))),))
    f, g = vertices.eval_word(w1), vertices.eval_word(w2)
    fg = vertices.compose(f, g)
    assert fg.components == vertices.eval_word(
        vertices.TameWord(w1.factors + w2.factors)
    ).components
    assert fg.witness == vertices.TameWord(w1.factors + w2.factors)
    bare = vertices.Automorphism((X1, X2, X3))
    assert vertices.compose(f, bare).witness is None


@settings(max_examples=100, deadline=None)
@given(words(5), points)
def test_eval_word_is_the_declared_composite(w, pt):
    comps = (X1, X2, X3)  # leftmost factor outermost: fold left to right
    for factor in w.factors:
        target = oracles.factor_components(factor)
        comps = tuple(oracles.naive_substitute(c, target) for c in comps)
    f = vertices.eval_word(w)
    assert f.components == comps
    image = pt
    for factor in reversed(w.factors):  # the innermost factor acts first
        image = oracles.apply_factor(factor, image)
    assert tuple(oracles.evaluate(c, pt) for c in f.components) == image


@settings(max_examples=50, deadline=None)
@given(words(2), words(2), points)
def test_compose_is_composition_at_points(w1, w2, pt):
    f, g = vertices.eval_word(w1), vertices.eval_word(w2)
    fg = vertices.compose(f, g)
    inner = tuple(oracles.evaluate(c, pt) for c in g.components)
    assert tuple(oracles.evaluate(c, pt) for c in fg.components) == tuple(
        oracles.evaluate(c, inner) for c in f.components
    )


def test_eval_word_names_the_leftmost_singular_affine():
    def singular(row):
        m = tuple(tuple(F(a) for a in r) for r in (row, row, (0, 0, 1)))
        return vertices.Affine(m, (F(0), F(0), F(0)))

    left, right = singular((1, 2, 0)), singular((0, 1, 0))
    swap = vertices.affine(((0, 1, 0), (1, 0, 0), (0, 0, 1)), (1, 0, 0))
    w = vertices.TameWord((vertices.elementary(1, P((1, 0, 2, 0))), left, swap, right))
    with pytest.raises(SingularAffine) as err:
        vertices.eval_word(w)
    assert str(left.matrix) in str(err.value)
    assert str(right.matrix) not in str(err.value)


def test_automorphism_validation():
    with pytest.raises(DependentInputs):
        vertices.automorphism((X1, poly.scale(2, X1), X3))
    with pytest.raises(WitnessMismatch):
        vertices.automorphism(
            (X1, X2, X3),
            vertices.TameWord((vertices.elementary(1, P((1, 0, 2, 0))),)),
        )
    # independent components, Jacobian 2·x1: not an automorphism
    with pytest.raises(NotAnAutomorphism):
        vertices.automorphism((P((1, 2, 0, 0)), X2, X3))


def test_an_unchecked_witness_is_rejected_in_the_exact_order():
    # a declared word stands in for the Jacobian only after every factor is
    # re-checked; otherwise the exact check runs first, as for a bare triple
    square = P((1, 2, 0, 0))
    word = vertices.TameWord
    # a bare Elementary skips vertices.elementary(): x1 ↦ x1 + x1² matches
    # its own evaluation, but its Jacobian is 1 + 2·x1
    own = word((vertices.Elementary(1, square),))
    with pytest.raises(NotAnAutomorphism):
        vertices.automorphism(vertices.eval_word(own).components, own)
    bad_index = word((vertices.Elementary(4, X2),))
    with pytest.raises(NotAnAutomorphism):
        vertices.automorphism((square, X2, X3), bad_index)
    with pytest.raises(DependentInputs):
        vertices.automorphism((X1, X1, X3), bad_index)
    # a bare singular Affine evaluates to (x1, x1, x3): the exact check wins
    m = tuple(tuple(F(a) for a in row) for row in ((1, 0, 0), (1, 0, 0), (0, 0, 1)))
    singular = word((vertices.Affine(m, (F(0), F(0), F(0))),))
    with pytest.raises(DependentInputs):
        vertices.automorphism((X1, X1, X3), singular)
    with pytest.raises(SingularAffine):
        vertices.automorphism((X1, X2, X3), singular)
    checked = word((vertices.elementary(1, P((1, 0, 2, 0))),))
    with pytest.raises(DependentInputs):
        vertices.automorphism((X1, poly.scale(2, X1), X3), checked)
    with pytest.raises(NotAnAutomorphism):
        vertices.automorphism((square, X2, X3), checked)
    # a checked word whose evaluation passes the degree cap: its
    # DegreeOverflow comes after the exact check, as an evaluation error
    huge = word(
        (vertices.elementary(1, P((1, 0, 100, 0))), vertices.elementary(2, P((1, 200, 0, 0))))
    )
    with pytest.raises(DependentInputs):
        vertices.automorphism((X1, X1, X3), huge)
    with pytest.raises(DegreeOverflow):
        vertices.automorphism((X1, X2, X3), huge)


# -- canonical representatives ------------------------------------------------


def test_good_representative_drops_constants_and_scales_monic():
    rep = vertices.good_representative((P((2, 1, 0, 0), (5, 0, 0, 0)),))
    assert rep == (X1,)


def test_good_representative_sorts_by_degree():
    rep = vertices.good_representative((poly.scale(2, P((1, 0, 3, 0))), X1))
    assert rep == (X1, P((1, 0, 3, 0)))


def test_good_representative_resolves_degree_collisions():
    rep = vertices.good_representative((X1, poly.add(X1, X2)))
    assert rep == (X2, X1)


def test_good_representative_rejects_degenerate_tuples():
    with pytest.raises(DegenerateTuple):
        vertices.good_representative((P((3, 0, 0, 0)),))
    with pytest.raises(DegenerateTuple):
        vertices.good_representative((X1, poly.add(poly.scale(2, X1), P((3, 0, 0, 0)))))


def test_stratified_degrees_of_nagata_components():
    d = vertices.stratified_degrees(NAGATA.components)
    assert d.stratified == ((0, 0, 1), (1, 0, 2), (2, 0, 3))
    assert d.total == (3, 0, 6)
    assert d.top == (2, 0, 3)
    for f in (NAGATA, CUBIC, QUINTIC):
        c = f.components
        assert vertices.stratified_degrees(c) == vertices.vertex_degrees(vertices.vertex3(c))


# -- vertices and orbit equality ----------------------------------------------


def test_identity_vertex():
    v = vertices.identity_vertex()
    assert v.representative == (X3, X2, X1)
    assert vertices.vertex_degrees(v).total == (1, 1, 1)
    assert vertices.is_identity(v)
    assert not vertices.is_identity(vertices.vertex3(CUBIC.components))


def test_vertex_equality_is_affine_invariance():
    v = vertices.vertex3(CUBIC.components)
    aff = vertices.eval_word(
        vertices.TameWord(
            (vertices.affine(((2, 1, 0), (0, 1, 0), (1, 0, 3)), (5, 0, F(1, 2))),)
        )
    )
    moved = vertices.compose(aff, CUBIC)
    assert vertices.vertex_equal(v, vertices.vertex3(moved.components))
    assert v == vertices.vertex3(moved.components)
    assert not vertices.vertex_equal(v, vertices.identity_vertex())


def test_vertices_are_unhashable():
    v = vertices.identity_vertex()
    with pytest.raises(TypeError):
        hash(v)
    assert (v == 3) is False


def test_vertex3_rejects_dependent_components():
    with pytest.raises(DependentInputs):
        vertices.vertex3((X1, X2, poly.mul(X1, X2)))


def test_point_and_line_equality():
    assert vertices.point_equal(
        vertices.point(X1), vertices.point(P((2, 1, 0, 0), (5, 0, 0, 0)))
    )
    assert not vertices.point_equal(vertices.point(X1), vertices.point(X2))
    a = vertices.line((X1, X2))
    b = vertices.line((poly.add(X1, X2), poly.sub(X2, X1)))
    assert vertices.line_equal(a, b)
    assert a == b
    assert not vertices.line_equal(a, vertices.line((X1, X3)))


def _vertex(comps):
    """The type-r vertex spanned by r components, r = 1, 2, 3."""
    if len(comps) == 1:
        return vertices.point(comps[0])
    return vertices.line(comps) if len(comps) == 2 else vertices.vertex3(comps)


def _rep(x):
    return (x.representative,) if isinstance(x, vertices.Point) else x.representative


_EQUAL = {1: vertices.point_equal, 2: vertices.line_equal, 3: vertices.vertex_equal}


def _combination(row, shift, comps):
    out = poly.const(shift)
    for m, g in zip(row, comps):
        out = poly.add(out, poly.scale(m, g))
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda r: st.tuples(
            st.lists(polys, min_size=r, max_size=r),
            st.lists(
                st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                min_size=r,
                max_size=r,
            ),
            st.lists(small, min_size=r, max_size=r),
            st.lists(polys, min_size=r, max_size=r),
        )
    )
)
def test_orbit_equality_matches_the_determinant_reference(case):
    # canonical tuples and their images under affine changes of values,
    # invertible or singular, with shifted constants; and unrelated tuples
    raw, matrix, shift, other = case
    equal = _EQUAL[len(raw)]
    try:
        a = _vertex(tuple(raw))
    except (DegenerateTuple, DependentInputs):
        assume(False)
    image = tuple(_combination(row, s, _rep(a)) for row, s in zip(matrix, shift))
    invertible = oracles.det(matrix) != 0
    assert oracles.determinant_orbit_equal(_rep(a), image) == invertible
    try:
        b = _vertex(image)
    except DegenerateTuple:
        # a singular change leaves no canonical tuple to compare
        assert not invertible
    else:
        assert invertible
        assert equal(a, b) and equal(b, a)
    try:
        c = _vertex(tuple(other))
    except (DegenerateTuple, DependentInputs):
        return
    assert equal(a, c) == oracles.determinant_orbit_equal(_rep(a), _rep(c))


def test_incidence():
    v = vertices.identity_vertex()
    l = vertices.line((X2, X3))
    assert vertices.line_in_vertex(l, v)
    assert not vertices.line_in_vertex(
        vertices.line((X1, P((1, 0, 2, 0)))), v
    )
    assert vertices.point_in_line(vertices.point(X3), l)
    assert not vertices.point_in_line(vertices.point(X1), l)


def test_lines_of_and_minimal_line():
    v = vertices.vertex3(CUBIC.components)
    ls = vertices.lines_of(v)
    assert len(ls) == 3
    assert vertices.line_equal(ls[0], vertices.minimal_line(v))
    g1, g2, g3 = v.representative
    assert ls[0].representative == (g1, g2)
    d = vertices.vertex_degrees(v)
    assert vertices.vertex_degrees(ls[0]).total == poly.mdeg_add(
        d.stratified[0], d.stratified[1]
    )
    assert vertices.minimal_vertex(v).representative == g1


@settings(max_examples=150, deadline=None)
@given(
    st.lists(polys, min_size=1, max_size=3),
    st.lists(coeffs, min_size=4, max_size=4),
    exponents,
)
def test_affine_coordinates_match_the_minor_rank_oracle(raw, combo, extra):
    try:
        basis = vertices.good_representative(tuple(raw))
    except DegenerateTuple:
        assume(False)
    columns = list(basis) + [poly.const(1)]
    member = poly.const(combo[-1])
    for c, b in zip(combo, basis):
        member = poly.add(member, poly.scale(c, b))
    # a monomial outside every basis support is outside the affine span
    assume(extra != (0, 0, 0) and all(extra not in b for b in basis))
    outsider = poly.add(member, poly.monomial(extra))
    rank = oracles.rank(columns)
    assert oracles.rank(columns + [member]) == rank
    assert linalg.affine_coordinates(basis, member) == list(combo[: len(basis)]) + [combo[-1]]
    assert oracles.rank(columns + [outsider]) > rank
    assert linalg.affine_coordinates(basis, outsider) is None


# -- line attributes and resonance --------------------------------------------


def test_line_attributes_of_coordinate_line():
    attrs = vertices.line_attributes(vertices.line((X2, X3)))
    assert attrs.d == (0, 1, 1)
    assert attrs.delta == (0, 2, 0)


def test_line_attributes_of_nagata_minimal_line():
    attrs = vertices.line_attributes(
        vertices.minimal_line(vertices.vertex3(NAGATA.components))
    )
    assert attrs.d == (1, 0, 3)
    assert attrs.delta == (2, 0, 4)


def test_inner_resonance():
    multiple = vertices.line((X3, P((1, 0, 0, 2), (1, 0, 1, 0))))
    assert vertices.inner_resonance(multiple)
    assert not vertices.inner_resonance(vertices.line((X2, X3)))


def test_complement_degree_and_outer_resonance():
    v = vertices.identity_vertex()
    l = vertices.line((X2, X3))
    assert vertices.complement_degree(v, l) == (1, 0, 0)
    assert not vertices.outer_resonance(l, v)
    with pytest.raises(NotIncident):
        vertices.complement_degree(v, vertices.line((X1, P((1, 0, 2, 0)))))
    resonant = vertices.vertex3((X3, X2, P((1, 1, 0, 0), (1, 0, 1, 1))))
    assert vertices.complement_degree(resonant, l) == (0, 1, 1)
    assert vertices.outer_resonance(l, resonant)


# -- neighbors ----------------------------------------------------------------


def test_complete_to_vertex():
    v = vertices.identity_vertex()
    l = vertices.line((X3, X2))
    assert vertices.complete_to_vertex(v, l) == X1
    with pytest.raises(NotIncident):
        vertices.complete_to_vertex(v, vertices.line((X1, P((1, 0, 2, 0)))))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        words(3).map(vertices.eval_word), st.sampled_from([CUBIC, QUINTIC, NAGATA])
    ),
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=2, max_size=2),
    st.lists(small, min_size=2, max_size=2),
    st.sampled_from([None, 0, 1, 2]),
)
def test_complete_to_vertex_matches_the_first_outside_loop(f, matrix, shift, drop):
    # any line of v, not only the canonical triangle: a 2-dimensional span
    # of affine combinations of v's components, leaving out the component
    # `drop` to make each one the completion in turn
    v = vertices.vertex3(f.components)
    if drop is not None:
        matrix = [[0 if k == drop else m for k, m in enumerate(row)] for row in matrix]
    comps = tuple(_combination(row, s, v.representative) for row, s in zip(matrix, shift))
    try:
        l = vertices.line(comps)
    except DegenerateTuple:
        assume(False)
    expected = oracles.first_outside_completion(v.representative, l.representative)
    assert vertices.complete_to_vertex(v, l) == expected


def test_neighbor_round_trip():
    v = vertices.identity_vertex()
    center = vertices.line((X3, X2))
    # y is bound to x2 (the higher stratum of the center)
    moved = vertices.neighbor(v, center, {(2, 0): F(1)})
    assert vertices.vertex_equal(
        moved, vertices.vertex3((X3, X2, P((1, 1, 0, 0), (1, 0, 2, 0))))
    )
    assert vertices.line_in_vertex(center, moved)
    back = vertices.neighbor(moved, center, {(2, 0): F(-1)})
    assert vertices.vertex_equal(back, v)


def test_neighbor_rejects_affine_correction():
    v = vertices.identity_vertex()
    with pytest.raises(AffineP):
        vertices.neighbor(v, vertices.line((X3, X2)), {(1, 0): F(1), (0, 0): F(2)})


# -- strong pivotal form ------------------------------------------------------


def test_spf_holds_on_the_cubic_k_center():
    v = vertices.vertex3(CUBIC.components)
    g1, g2, g3 = v.representative
    center = vertices.line((g1, g3))
    assert vertices.spf_check(vertices.point(g1), center, v) == 3


def test_spf_holds_on_the_quintic_k_center():
    v = vertices.vertex3(QUINTIC.components)
    g1, g2, g3 = v.representative
    center = vertices.line((g1, g3))
    assert vertices.spf_check(vertices.point(g1), center, v) == 5


def test_spf_rejects_wrong_pivot_degree():
    v = vertices.vertex3(CUBIC.components)
    g1, g2, g3 = v.representative
    center = vertices.line((g1, g3))
    assert vertices.spf_check(vertices.point(g3), center, v) is None


def test_spf_rejects_non_resonant_strata():
    v = vertices.vertex3(CUBIC.components)
    g1, g2, g3 = v.representative
    # strata (6,0,0) and (7,0,1) are not in (2δ, sδ) position
    assert vertices.spf_check(
        vertices.point(g1), vertices.line((g1, g2)), v
    ) is None


def test_spf_checks_incidence():
    v = vertices.vertex3(CUBIC.components)
    g1, g2, g3 = v.representative
    center = vertices.line((g1, g3))
    with pytest.raises(NotIncident):
        vertices.spf_check(vertices.point(g2), center, v)
    with pytest.raises(NotIncident):
        vertices.spf_check(
            vertices.point(X1), vertices.line((X1, P((1, 0, 2, 0)))), v
        )

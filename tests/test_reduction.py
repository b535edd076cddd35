"""The reduction engine: searches, K-classification, paths, certificates."""

from fractions import Fraction as F

import pytest

from tame3 import poly, reduction
from tame3.errors import (
    HypothesesUnmet,
    IdentityVertex,
    NotIncident,
    NotNeighbors,
)
from tame3.reduction import (
    KIND_ELEMENTARY,
    KIND_ELEMENTARY_K,
    KIND_PROPER_K,
    KIND_SIMPLE,
    NonReducibleReport,
    ReductionPath,
    ReductionStep,
    SearchBudget,
    _connecting_bipoly,
    _elementary_K_evidence,
    classify_elementary_K,
    classify_proper_K,
    elementary_K_report,
    elementary_search,
    nontame_certificate,
    reduce_once,
    reduction_path,
    shared_center,
    simple_search,
    square_rewrite,
)
from tame3.vertices import (
    TameWord,
    automorphism,
    eval_word,
    identity_vertex,
    line,
    line_equal,
    lines_of,
    point,
    spf_check,
    vertex3,
    vertex_degrees,
    vertex_equal,
)
from tame3.wordgen import GeneratorSpec, gen_tame

from fixtures import (
    CUBIC,
    CUBIC_TARGET,
    E1_3,
    E2,
    G3,
    NAGATA,
    P,
    QUINTIC,
    X1,
    X2,
    X3,
    cubic_vertices,
    quintic_vertices,
)


@pytest.fixture(scope="module")
def cubic_pair():
    return cubic_vertices()


@pytest.fixture(scope="module")
def cubic_step(cubic_pair):
    step = reduce_once(cubic_pair[0])
    assert isinstance(step, ReductionStep)
    return step


@pytest.fixture(scope="module")
def quintic_pair():
    return quintic_vertices()


@pytest.fixture(scope="module")
def quintic_step(quintic_pair):
    step = reduce_once(quintic_pair[0])
    assert isinstance(step, ReductionStep)
    return step


# -- elementary and simple searches -------------------------------------------


def test_elementary_search_trivial():
    v = vertex3((poly.add(X1, P((1, 0, 2, 0))), X2, X3))
    res = elementary_search(v, line((X2, X3)))
    assert res is not None
    data, target, optimal = res
    assert data == {(2, 0): F(-1)}
    assert vertex_equal(target, identity_vertex())
    assert optimal


def test_elementary_search_checks_incidence():
    v = vertex3((poly.add(X1, P((1, 0, 2, 0))), X2, X3))
    with pytest.raises(NotIncident):
        elementary_search(v, line((X1, P((1, 0, 0, 2)))))


def test_search_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(support_cap=0)
    with pytest.raises(ValueError):
        SearchBudget(slack=0)


def test_simple_search_trivial():
    v = vertex3((poly.add(X1, P((1, 0, 3, 0))), X2, X3))
    step = simple_search(v, line((X2, X3)), point(X2))
    assert step is not None
    assert step.data == {(3, 0): F(-1)}
    assert step.strict
    assert vertex_equal(step.target, identity_vertex())


def test_simple_search_picks_the_linear_fix():
    # the residue's degree collides with the other center component, so the
    # correction acquires a linear z-term with coefficient a = -1
    anc = vertex3(
        (
            P((1, 1, 0, 0), (1, 0, 2, 0), (1, 0, 3, 0)),  # x1 + x2² + x2³
            X2,
            P((1, 0, 0, 1), (1, 0, 2, 0)),  # x3 + x2²
        )
    )
    center = line((X2, P((1, 0, 0, 1), (1, 0, 2, 0))))
    step = simple_search(anc, center, point(X2))
    assert step is not None
    assert step.data == {(0, 3): F(-1), (1, 0): F(-1)}
    expected = vertex3(
        (P((1, 1, 0, 0), (-1, 0, 0, 1)), X2, P((1, 0, 0, 1), (1, 0, 2, 0)))
    )
    assert vertex_equal(step.target, expected)


def test_simple_search_none_without_cancellation():
    # the completion is linear over the center: no pivot power strips anything
    flat = vertex3((X1, X2, poly.add(X3, P((1, 0, 2, 0)))))
    center = line((X1, poly.add(X3, P((1, 0, 2, 0)))))
    assert simple_search(flat, center, point(X1)) is None


# -- the cubic word: s = 3 ----------------------------------------------------


def test_cubic_vertex_degrees(cubic_pair):
    v, u = cubic_pair
    assert vertex_degrees(v).stratified == ((6, 0, 0), (7, 0, 1), (9, 0, 0))
    assert vertex_degrees(u).stratified == ((3, 0, 0), (6, 0, 0), (9, 0, 0))


def test_cubic_reduce_once_is_an_elementary_k_step(cubic_pair, cubic_step):
    v, u = cubic_pair
    step = cubic_step
    assert step.kind == KIND_ELEMENTARY_K
    assert vertex_equal(step.target, u)
    # the correction is -c·y² + c·z³ for a single constant c > 0
    assert set(step.data) == {(2, 0), (0, 3)}
    assert step.data[(2, 0)] < 0
    assert step.data[(0, 3)] == -step.data[(2, 0)]
    assert step.evidence is not None and step.evidence.all_hold
    assert spf_check(step.pivot, step.center, v) == 3


def test_cubic_step_center_is_the_shared_line(cubic_pair, cubic_step):
    v, u = cubic_pair
    assert shared_center(v, u) == cubic_step.center


@pytest.mark.parametrize("name", ["cubic_step", "quintic_step"])
def test_k_step_evidence_matches_the_shared_center_report(name, request):
    # reduce_once classifies at its search center; the report recomputes
    # the shared center from the two vertices and must agree with it
    step = request.getfixturevalue(name)
    report = elementary_K_report(step.source, step.target)
    ev = step.evidence
    assert shared_center(step.source, step.target).representative == step.center.representative
    assert report.center.representative == ev.center.representative
    assert report.pivot.representative == ev.pivot.representative
    for field in (
        "delta",
        "complement",
        "degree_drop",
        "no_inner_resonance",
        "no_outer_resonance",
        "center_not_minimal",
        "delta_dominates",
    ):
        assert getattr(report, field) == getattr(ev, field), field


def test_cubic_reduction_path(cubic_pair):
    path = reduction_path(CUBIC)
    assert isinstance(path, ReductionPath)
    assert vertex_equal(path.terminal, identity_vertex())
    assert path.steps[0].kind == KIND_ELEMENTARY_K
    degs = [vertex_degrees(s.source).total for s in path.steps]
    degs.append(vertex_degrees(path.terminal).total)
    assert all(poly.mdeg_gt(a, b) for a, b in zip(degs, degs[1:]))


# -- the quintic word: s = 5 --------------------------------------------------


def test_quintic_vertex_degrees(quintic_pair):
    v, u = quintic_pair
    assert vertex_degrees(v).stratified == ((10, 0, 0), (20, 3, 0), (25, 0, 0))
    assert vertex_degrees(u).stratified == ((5, 0, 0), (10, 0, 0), (25, 0, 0))


def test_quintic_reduce_once_is_an_elementary_k_step(quintic_pair, quintic_step):
    v, u = quintic_pair
    step = quintic_step
    assert step.kind == KIND_ELEMENTARY_K
    assert vertex_equal(step.target, u)
    assert set(step.data) == {(2, 0), (0, 5)}
    assert step.data[(2, 0)]
    assert step.data[(0, 5)] == -step.data[(2, 0)]
    assert spf_check(step.pivot, step.center, v) == 5


# -- the quadratic-kernel map: certificate, no reduction ----------------------


def test_nagata_reduce_once_reports_every_attempt():
    v = vertex3(NAGATA.components)
    assert vertex_degrees(v).stratified == ((0, 0, 1), (1, 0, 2), (2, 0, 3))
    out = reduce_once(v)
    assert isinstance(out, NonReducibleReport)
    assert len(out.attempts) >= 3
    assert all(a.outcome for a in out.attempts)


def test_nagata_certificate():
    cert = nontame_certificate(NAGATA)
    assert cert is not None
    assert cert.degrees == ((0, 0, 1), (1, 0, 2), (2, 0, 3))
    assert cert.independence == ((0, 1), (0, 2), (1, 2))
    assert cert.combination_free == (0, 1, 2)
    assert len(cert.no_two_delta) == 3
    assert len(cert.searched_centers) == 3


def test_unwitnessed_nonreducible_path_fails_fast():
    path = reduction_path(NAGATA)
    assert isinstance(path, NonReducibleReport)


def test_no_certificate_for_reducible_maps():
    assert nontame_certificate(eval_word(TameWord(()))) is None
    assert nontame_certificate(CUBIC) is None


# -- proper-K classification and its normalization ----------------------------


def test_proper_k_classification_and_normalization(quintic_pair, quintic_step):
    v5, u5 = quintic_pair
    f5_1, f5_2, f5_3 = QUINTIC.components
    assert poly.deg(f5_1) == (25, 0, 0)
    assert poly.deg(f5_2) == (10, 0, 0)
    v5p = vertex3((poly.add(f5_1, poly.mul(f5_2, f5_2)), f5_2, f5_3))
    assert vertex_degrees(v5p).stratified == vertex_degrees(v5).stratified

    ev = classify_proper_K(v5p, v5, u5)
    assert ev is not None
    assert ev.all_hold
    assert not ev.normal
    assert ev.s == 5

    # normalization: close the square over the auxiliary vertex
    m2 = ev.aux_center
    data2 = _connecting_bipoly(v5, m2, v5p)
    assert data2 is not None
    second = ReductionStep(
        kind=KIND_SIMPLE,
        source=v5,
        target=v5p,
        center=m2,
        pivot=ev.pivot,
        data=data2,
        strict=False,
    )
    sq = square_rewrite(v5, quintic_step, second)
    assert classify_elementary_K(v5p, sq.u) is not None
    assert poly.mdeg_gt(vertex_degrees(v5p).total, vertex_degrees(sq.u).total)
    assert vertex_equal(sq.via_prime[1].target, sq.via_second[1].target)


# -- resonance spoilers: searches succeed, classification refuses -------------


def test_outer_resonance_blocks_k_classification():
    f = automorphism(
        (poly.add(X1, P((1, 0, 0, 3))), X2, poly.add(X3, P((1, 0, 2, 0))))
    )
    step = reduce_once(vertex3(f.components))
    assert isinstance(step, ReductionStep)
    report = elementary_K_report(step.source, step.target)
    assert not report.no_outer_resonance
    assert classify_elementary_K(step.source, step.target) is None
    path = reduction_path(f)
    assert isinstance(path, NonReducibleReport) is False
    assert vertex_equal(path.terminal, identity_vertex())


def test_inner_resonance_blocks_k_classification(cubic_pair):
    f1, f2, f3 = CUBIC.components
    u3 = CUBIC_TARGET.components[2]
    v = vertex3((poly.add(f1, poly.mul(f2, f2)), f2, f3))
    vp = vertex3((poly.add(f1, poly.mul(f2, f2)), f2, u3))
    report = elementary_K_report(v, vp)
    assert not report.no_inner_resonance
    assert classify_elementary_K(v, vp) is None


def test_minimal_line_center_blocks_k():
    vgt1 = vertex3(eval_word(TameWord((G3, E2, E1_3))).components)
    vt1 = vertex3(eval_word(TameWord((E2, E1_3))).components)
    step = reduce_once(vgt1)
    assert isinstance(step, ReductionStep)
    assert vertex_equal(step.target, vt1)
    report = elementary_K_report(step.source, step.target)
    assert not report.center_not_minimal
    assert spf_check(step.pivot, step.center, vgt1) is None


# -- the rewrite square -------------------------------------------------------


def test_square_rewrite_on_a_small_fixture():
    vsq = vertex3((poly.add(X1, P((1, 0, 3, 0))), poly.add(X2, P((1, 0, 0, 2))), X3))
    pcenter = line((poly.add(X2, P((1, 0, 0, 2))), X3))
    res = elementary_search(vsq, pcenter, SearchBudget(slack=3))
    assert res is not None
    pdata, ptarget, _ = res
    assert pdata == {(3, 0): F(-1), (2, 2): F(3), (1, 4): F(-3), (0, 6): F(1)}
    prime = ReductionStep(
        kind=KIND_ELEMENTARY,
        source=vsq,
        target=ptarget,
        center=pcenter,
        pivot=point(X3),
        data=pdata,
        strict=True,
    )
    second = simple_search(vsq, line((X3, poly.add(X1, P((1, 0, 3, 0))))), point(X3))
    assert second is not None
    assert second.data == {(0, 2): F(-1)}
    sq = square_rewrite(vsq, prime, second)
    assert vertex_equal(sq.u, identity_vertex())
    assert vertex_equal(sq.via_prime[1].target, sq.u)
    assert vertex_equal(sq.via_second[1].target, sq.u)
    assert sq.via_prime[1].strict and sq.via_second[1].strict


def test_square_rewrite_rejects_shared_centers():
    vsq = vertex3((poly.add(X1, P((1, 0, 3, 0))), X2, X3))
    center = line((X2, X3))
    step = simple_search(vsq, center, point(X2))
    assert step is not None
    with pytest.raises(HypothesesUnmet):
        square_rewrite(vsq, step, step)


# -- identity handling and neighbor relations ---------------------------------


def test_reduce_once_rejects_the_identity_vertex():
    with pytest.raises(IdentityVertex):
        reduce_once(identity_vertex())


def test_reduction_path_of_the_identity_is_empty():
    path = reduction_path(eval_word(TameWord(())))
    assert isinstance(path, ReductionPath)
    assert path.steps == ()
    assert vertex_equal(path.terminal, identity_vertex())


def test_shared_center_requires_neighbors(cubic_pair):
    v, _ = cubic_pair
    with pytest.raises(NotNeighbors):
        shared_center(v, v)
    with pytest.raises(NotNeighbors):
        shared_center(v, identity_vertex())


def _criterion_6_map(seed):
    return eval_word(gen_tame(GeneratorSpec(seed=seed, length=8)))


def test_reduce_once_stops_at_the_first_line_with_a_move(monkeypatch):
    v = vertex3(_criterion_6_map(0).components)
    assert elementary_search(v, lines_of(v)[0]) is not None
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return elementary_search(*args, **kwargs)

    monkeypatch.setattr(reduction, "elementary_search", counted)
    step = reduce_once(v)
    assert isinstance(step, ReductionStep)
    assert len(calls) == 1
    assert line_equal(step.center, lines_of(v)[0])


def test_an_elementary_k_move_excludes_every_other_center():
    # reduce_once returns the first line's move; that is only right because a
    # vertex with an elementary K-move has no elementary move at another center
    maps = [_criterion_6_map(seed) for seed in range(6)] + [CUBIC, QUINTIC]
    k_vertices = 0
    for f in maps:
        path = reduction_path(f)
        assert isinstance(path, ReductionPath)
        for step in path.steps:
            if step.kind != KIND_PROPER_K:
                assert line_equal(shared_center(step.source, step.target), step.center)
            v = step.source
            found = [(l, elementary_search(v, l)) for l in lines_of(v)]
            for i, (l, res) in enumerate(found):
                if res is None or not _elementary_K_evidence(v, res[1], l).all_hold:
                    continue
                k_vertices += 1
                assert all(r is None for j, (_, r) in enumerate(found) if j != i)
    assert k_vertices == 2

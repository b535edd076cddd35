"""Acceptance suite: the numbered end-to-end claims this package stands on.

One test per criterion, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line each.  Wall-clock limits are asserted where a criterion
states one; each test ends with a short stat line (visible with `-s` or on
failure).  Expected values here are frozen — they were produced by the
independent oracles in oracles.py and by hand computation on the fixtures,
never read back from the code under test.
"""

import random
import time
from fractions import Fraction as F

from tame3 import analysis, cli, forms, poly
from tame3.reduction import (
    KIND_ELEMENTARY_K,
    KIND_SIMPLE,
    ReductionPath,
    ReductionStep,
    SearchBudget,
    _connecting_bipoly,
    classify_elementary_K,
    classify_proper_K,
    elementary_search,
    nontame_certificate,
    reduce_once,
    reduction_path,
    square_rewrite,
)
from tame3.vertices import (
    complete_to_vertex,
    eval_word,
    identity_vertex,
    inner_resonance,
    line_attributes,
    lines_of,
    neighbor,
    spf_check,
    vertex3,
    vertex_degrees,
    vertex_equal,
)
from tame3.wordgen import GeneratorSpec, gen_tame

import oracles
from fixtures import CUBIC, NAGATA, NAGATA_SOURCE, QUINTIC, cubic_vertices, quintic_vertices
from oracles import derivative_multiplicity, root_order, top_form, y_mul

ONE: analysis.Poly = {(0, 0, 0): F(1)}


def test_criterion_1_nagata_certificate_is_budget_free(tmp_path, capsys):
    assert [poly.deg(c) for c in NAGATA.components] == [
        (2, 0, 3),
        (1, 0, 2),
        (0, 0, 1),
    ]

    source = tmp_path / "nagata.auto"
    source.write_text(NAGATA_SOURCE, encoding="utf-8")
    t0 = time.monotonic()
    code = cli.main(["certify-nontame", str(source)])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "degrees: (0,0,1) (1,0,2) (2,0,3)" in out
    assert "pairwise independent strata: (1,2) (1,3) (2,3)" in out
    assert "no stratum is a natural combination of the others: 1 2 3" in out
    assert (
        "no K-move pairing: stratum (0, 0, 1) is not twice an integral degree"
        in out
    )
    assert elapsed < 1.0, f"certificate took {elapsed:.2f}s"

    cert = nontame_certificate(NAGATA)
    assert cert is not None
    assert cert.independence == ((0, 1), (0, 2), (1, 2))
    assert cert.combination_free == (0, 1, 2)
    assert len(cert.no_two_delta) == 3
    print(f"criterion 1: certificate in {elapsed * 1000:.0f} ms")


def test_criterion_2_cubic_golden_run():
    t0 = time.monotonic()
    f1, f2, f3 = CUBIC.components
    assert poly.deg(f1) == (9, 0, 0)
    assert poly.deg(f2) == (6, 0, 0)
    assert poly.deg(f3) == (7, 0, 1)
    wedge = forms.wedge11(forms.differential(f1), forms.differential(f2))
    assert forms.deg_form(wedge) == (4, 0, 1)

    v, u = cubic_vertices()
    step = reduce_once(v)
    assert isinstance(step, ReductionStep)
    assert step.kind == KIND_ELEMENTARY_K
    assert vertex_equal(step.target, u)
    pivotal = tuple(a // 2 for a in poly.deg(step.pivot.representative))
    assert pivotal == (3, 0, 0)
    assert spf_check(step.pivot, step.center, v) == 3

    path = reduction_path(CUBIC)
    assert isinstance(path, ReductionPath)
    assert vertex_equal(path.terminal, identity_vertex())
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"golden run took {elapsed:.2f}s"
    print(f"criterion 2: K-step plus {len(path.steps)}-step path in {elapsed:.2f}s")


def test_criterion_3_quintic_golden_run():
    f1, f2, f3 = QUINTIC.components
    assert poly.deg(f1) == (25, 0, 0)
    assert poly.deg(f2) == (10, 0, 0)
    assert poly.deg(f3) == (20, 3, 0)
    wedge = forms.wedge11(forms.differential(f1), forms.differential(f2))
    assert forms.deg_form(wedge) == (5, 3, 0)

    v, u = quintic_vertices()
    step = reduce_once(v)
    assert isinstance(step, ReductionStep)
    assert spf_check(step.pivot, step.center, v) == 5
    pivotal = tuple(a // 2 for a in poly.deg(step.pivot.representative))
    assert pivotal == (5, 0, 0)
    print("criterion 3: quintic wedge (5,3,0), s = 5, pivotal degree (5,0,0)")


def test_criterion_4_proper_k_normalization():
    v5, u5 = quintic_vertices()
    f5_1, f5_2, f5_3 = QUINTIC.components
    v5p = vertex3((poly.add(f5_1, poly.mul(f5_2, f5_2)), f5_2, f5_3))

    ev = classify_proper_K(v5p, v5, u5)
    assert ev is not None
    assert ev.all_hold
    assert not ev.normal
    assert ev.s == 5

    prime = reduce_once(v5)
    assert isinstance(prime, ReductionStep)
    data2 = _connecting_bipoly(v5, ev.aux_center, v5p)
    assert data2 is not None
    second = ReductionStep(
        kind=KIND_SIMPLE,
        source=v5,
        target=v5p,
        center=ev.aux_center,
        pivot=ev.pivot,
        data=data2,
        strict=False,
    )
    sq = square_rewrite(v5, prime, second)
    assert classify_elementary_K(v5p, sq.u) is not None
    assert poly.mdeg_gt(vertex_degrees(v5p).total, vertex_degrees(sq.u).total)
    print("criterion 4: non-normal proper K-move normalized to an elementary one")


def test_criterion_5_random_word_property_sweep():
    t0 = time.monotonic()
    words = parachutes = drops = 0
    for seed in range(500):
        w = gen_tame(GeneratorSpec(seed=seed, length=seed % 8 + 1, coeff_bound=3))
        f = eval_word(w)
        assert analysis.two_maxima_check(f).ok
        # the evaluated components against the declared word, mod 2⁶¹ − 1
        pts = random.Random(f"mod p {seed}")
        for _ in range(2):
            pt = tuple(pts.randrange(1, oracles.MOD_P) for _ in range(3))
            assert tuple(
                oracles.evaluate_mod_p(c, pt) for c in f.components
            ) == oracles.apply_word_mod_p(w.factors, pt), f"seed {seed}"

        diffs = [forms.differential(c) for c in f.components]
        for c, dc in zip(f.components, diffs):
            assert forms.deg_form(dc) == poly.deg(c)
        # wedge and scaling degree laws, exercised on the two lowest strata
        comps = sorted(f.components, key=lambda c: poly.grlex_key(poly.deg(c)))
        lo, mid = comps[0], comps[1]
        dlo, dmid = forms.differential(lo), forms.differential(mid)
        wd = forms.deg_form(forms.wedge11(dlo, dmid))
        both = poly.mdeg_add(poly.deg(lo), poly.deg(mid))
        assert wd is not None and poly.mdeg_le(wd, both)
        assert forms.deg_form(forms.scale_form(lo, dmid)) == both

        report = analysis.parachute_check([lo, mid], {2: ONE})
        assert report.holds
        parachutes += 1
        # forced virtual drop on a small planted pair: φ strips the planted
        # power of f2 exactly, so the bound must absorb a strict drop
        rng = random.Random(seed)
        f2 = {}
        for _ in range(rng.getrandbits(64) % 3 + 1):
            e = (0, rng.getrandbits(64) % 3, rng.getrandbits(64) % 3)
            c = rng.getrandbits(64) % 5 - 2
            if c:
                f2[e] = F(c)
        if not f2 or poly.deg(f2) == (0, 0, 0):
            f2 = {(0, 1, 0): F(1)}
        k = rng.getrandbits(64) % 2 + 2
        planted = poly.p_pow(f2, k)
        f1 = poly.add({(1, 0, 0): F(1)}, planted)
        report = analysis.parachute_check([f1, f2], {1: ONE, 0: poly.neg(planted)})
        assert report.holds and report.multiplicity >= 1
        assert poly.mdeg_gt(report.virtual, report.lhs)
        parachutes += 1
        drops += 1
        words += 1
    elapsed = time.monotonic() - t0
    assert words >= 500 and parachutes >= 500 and drops >= 100
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    print(
        f"criterion 5: {words} words, {parachutes} parachute instances "
        f"({drops} forced drops) in {elapsed:.1f}s"
    )


def test_criterion_6_paths_terminate_within_default_budget():
    t0 = time.monotonic()
    for seed in range(100):
        f = eval_word(gen_tame(GeneratorSpec(seed=seed, length=8)))
        path = reduction_path(f)  # BudgetExceeded would propagate as a failure
        assert isinstance(path, ReductionPath), f"seed {seed}"
        assert vertex_equal(path.terminal, identity_vertex())
        degs = [vertex_degrees(s.source).total for s in path.steps]
        degs.append(vertex_degrees(path.terminal).total)
        assert all(poly.mdeg_gt(a, b) for a, b in zip(degs, degs[1:]))
    elapsed = time.monotonic() - t0
    print(f"criterion 6: 100 paths, zero budget failures, {elapsed:.1f}s")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(11)

    def rand_poly(max_terms):
        p = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            e = tuple(rng.randrange(4) for _ in range(3))
            c = F(rng.randrange(-6, 7), rng.randrange(1, 4))
            if c:
                p[e] = c
        return p

    checked = 0
    while checked < 120:
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
    # planted roots bias the remainder of the batch toward multiplicity ≥ 1
    while checked < 200:
        g = rand_poly(2)
        if not g or poly.deg(g) == (0, 0, 0):
            continue
        psi = analysis.y_poly({i: rand_poly(2) for i in range(rng.randrange(1, 3))})
        if not psi:
            continue
        factor = {1: ONE, 0: poly.neg(top_form(g))}
        phi = psi
        for _ in range(rng.randrange(1, 4)):
            phi = y_mul(phi, factor)
        m = analysis.multiplicity(phi, g)
        assert m == root_order(phi, g) == derivative_multiplicity(phi, g)
        assert m >= 1
        checked += 1

    recovered = 0
    for seed in range(100):
        f = eval_word(gen_tame(GeneratorSpec(seed=seed, length=seed % 3 + 1)))
        v = vertex3(f.components)
        center = lines_of(v)[seed % 3]
        lo, hi = center.representative
        h = complete_to_vertex(v, center)
        k = max(2, sum(poly.deg(h)) // sum(poly.deg(hi)) + 1)
        planted = neighbor(v, center, {(k, 0): F(1)})
        assert poly.mdeg_gt(vertex_degrees(planted).total, vertex_degrees(v).total)
        wide = SearchBudget(virt_bound=poly.mdeg_scale(k, poly.deg(hi)))
        res = elementary_search(planted, center, wide)
        assert res is not None, f"seed {seed}: planted correction not found"
        _, target, _ = res
        assert poly.mdeg_le(
            vertex_degrees(target).total, vertex_degrees(v).total
        ), f"seed {seed}: stopped above the planted floor"
        recovered += 1
    assert recovered == 100
    print(f"criterion 7: {checked} multiplicity instances, {recovered}/100 recoveries")


def test_criterion_8_k_step_cross_checks():
    for (v, _), s in ((cubic_vertices(), 3), (quintic_vertices(), 5)):
        step = reduce_once(v)
        assert isinstance(step, ReductionStep)
        assert step.kind == KIND_ELEMENTARY_K
        assert spf_check(step.pivot, step.center, v) == s

        lines = lines_of(v)
        others = [l for l in lines if l != step.center]
        assert len(others) == 2
        for l in others:
            assert elementary_search(v, l) is None
        assert not any(inner_resonance(l) for l in lines)

        ds = [line_attributes(l).d for l in lines]
        assert len(set(ds)) == 3
        least = min(ds, key=poly.grlex_key)
        assert lines[ds.index(least)] == step.center
    print("criterion 8: both K-steps pass every cross-check")

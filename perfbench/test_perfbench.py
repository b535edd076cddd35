"""Tests of the benchmark's own parts: the oracle, the tracer, the refusal.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import PROBE_S, Speed  # noqa: E402
from tracer import Tracer  # noqa: E402

X1 = {(1, 0, 0): F(1)}
X2 = {(0, 1, 0): F(1)}
X3 = {(0, 0, 1): F(1)}
P = oracle.P


def pts(n=4, seed=0):
    return oracle.points(random.Random(seed), n)


# -- oracle ------------------------------------------------------------------

def test_identity_has_jacobian_one():
    for pt in pts():
        assert oracle.jacobian_det((X1, X2, X3), pt) == 1
    assert oracle.constant_nonzero_jacobian((X1, X2, X3), pts())


def test_nagata_expansion_and_jacobian_one():
    comps = workloads.nagata_components()
    for x, y, z in pts():
        w = (y * y - x * z) % P
        expected = ((x + 2 * y * w + z * w * w) % P, (y + z * w) % P, z)
        assert tuple(oracle.evaluate(c, (x, y, z)) for c in comps) == expected
        assert oracle.jacobian_det(comps, (x, y, z)) == 1


def test_square_map_has_nonconstant_jacobian_two_x1():
    comps = ({(2, 0, 0): F(1)}, X2, X3)
    for pt in pts():
        assert oracle.jacobian_det(comps, pt) == 2 * pt[0] % P
    assert not oracle.constant_nonzero_jacobian(comps, pts())


def test_composite_equals_its_word_factor_by_factor():
    perm = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    e = ("elem", 1, {(0, 2, 0): F(1)})  # x1 ↦ x1 + x2²
    a = ("affine", perm, (1, 0, 0))  # x ↦ (x2 + 1, x3, x1)
    # e ∘ a = (x2 + 1 + x3², x3, x1); a ∘ e = (x2 + 1, x3, x1 + x2²)
    ea = ({(0, 1, 0): F(1), (0, 0, 0): F(1), (0, 0, 2): F(1)}, X3, X1)
    ae = ({(0, 1, 0): F(1), (0, 0, 0): F(1)}, X3, {(1, 0, 0): F(1), (0, 2, 0): F(1)})
    for pt in pts():
        assert oracle.apply_word([e, a], pt) == tuple(oracle.evaluate(c, pt) for c in ea)
        assert oracle.apply_word([a, e], pt) == tuple(oracle.evaluate(c, pt) for c in ae)


def test_minors_rank_and_degree():
    pt = pts(1)[0]
    assert oracle.minors2(X1, X2, pt) == (1, 0, 0)
    assert oracle.minors2(X2, X1, pt) == (P - 1, 0, 0)
    rows = workloads.values((X1, X2, {(1, 0, 0): F(2), (0, 1, 0): F(-3)}), pts(5))
    assert oracle.rank(rows) == 2
    assert oracle.degree({(2, 0, 0): F(1), (0, 1, 2): F(1)}) == (0, 1, 2)
    assert oracle.residue(F(1, 2)) * 2 % P == 1


def test_formatted_polynomials_parse_back():
    from tame3.parsing import COMPONENT_VARIABLES, parse_poly

    p = {(2, 0, 1): F(-3, 4), (0, 1, 0): F(1), (0, 0, 0): F(-7), (1, 1, 1): F(-1)}
    assert parse_poly(workloads.fmt_poly(p), COMPONENT_VARIABLES) == p


# -- tracer ------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    t = Tracer()
    t.names = ["a.f", "b.g", "b.h"]
    t.spans = [(0, 0.0, 10.0, -1, 0), (1, 2.0, 5.0, 0, 0), (2, 3.0, 4.0, 1, 0)]
    s = t.summary(0, 3)
    assert s["a.f"]["self_s"] == pytest.approx(7.0)
    assert s["b.g"]["self_s"] == pytest.approx(2.0)
    assert s["b"]["self_s"] == pytest.approx(3.0) and s["b"]["calls"] == 2


def test_install_wraps_imported_bindings_and_uninstall_restores():
    import tame3.cli  # noqa: F401  (loads every tame3 module)
    from tame3 import cli, reduction, vertices

    original = vertices.line_attributes
    t = Tracer()
    t.install()
    try:
        assert reduction.line_attributes is vertices.line_attributes
        assert vertices.line_attributes.__wrapped__ is original
        assert cli.reduction_path is reduction.reduction_path
        assert hasattr(cli.reduction_path, "__wrapped__")
        for name in run.TRACED_FUNCTIONS:
            assert name in t.traced_names(), name
    finally:
        t.uninstall()
    assert reduction.line_attributes is original


def test_every_listed_function_is_reached_and_outputs_check(tmp_path):
    """Small rounds of all three workloads reach every traced function."""
    import tame3.cli  # noqa: F401

    t = Tracer()
    t.install()
    try:
        small = [
            workloads.Sweep(seed=3, words=8),
            workloads.Paths(seed=3, words=[9]),
            workloads.Golden(seed=3, workdir=tmp_path),
        ]
        for wl in small:
            for item in wl.round(0):
                t.begin_item(0)
                res = item.run()
                if not item.known_fault:
                    item.check(res)
    finally:
        t.uninstall()
    summary = t.summary(0, len(t.spans))
    missing = [n for n in run.TRACED_FUNCTIONS if summary.get(n, {}).get("calls", 0) == 0]
    assert missing == []
    assert t.counters["poly.mul.term_pairs"] > 0


# -- speed -------------------------------------------------------------------

def test_speed_scales_by_the_probes_near_the_interval_and_drops_their_time():
    s = Speed()
    # probes before, inside and after [1.0, 2.1], each at half the reference
    # speed, and one too far away to count
    s.ends = [0.9, 1.5, 2.1 + PROBE_S, 5.0]
    s.durations = [2 * PROBE_S, 2 * PROBE_S, 2 * PROBE_S, 100 * PROBE_S]
    assert s.scale(1.0, 2.1) == pytest.approx((1.1 - 2 * PROBE_S) / 2)


def test_speed_timed_brackets_the_call_with_probes():
    s = Speed()
    t0, t1 = s.timed(lambda: sum(range(10_000)))
    assert len(s.ends) == 2 and s.ends[0] <= t0 <= t1 <= s.ends[1]
    assert s.scale(t0, t1) > 0


# -- the command -------------------------------------------------------------

def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark's three workloads: inputs, timed items and their checks.

A workload is built once (its set-up) and then run in rounds.  Every round
is the same list of operations on freshly scaled inputs: each map f is
replaced by a∘f∘d, where d flips the signs of some variables and a
multiplies each component by a small nonzero integer, both drawn from the
run's seed and the round number.  Diagonal scalings keep every support,
every degree, every move kind and every system size, and these keep the
coefficients' sizes too, so all rounds and all seeds do the same algebraic
work at the same cost, while no two rounds hand the program the same
coefficients (a cache that outlives one input cannot make a later round
cheaper).

An item is one operation: `run` is timed, `check` is not.  `check` compares
the output with `oracle` computations and with properties the theory fixes
by hand; it raises `Mismatch` when they disagree.  Items with
``known_fault`` set exercise a fault of the program that is still present:
their mismatch is counted as a failed operation and does not make the run
incorrect.

Program calls go through module attributes (``reduction.reduction_path``),
so that a traced run reaches the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

import oracle

from tame3 import analysis, cli, forms, poly, reduction, vertices, wordgen

ONE = {(0, 0, 0): F(1)}
X1 = {(1, 0, 0): F(1)}

# The word pools of one round.  They are fixed so that every run measures the
# same work; the seed draws the scalings, the planted pairs and the points.
SWEEP_WORDS = 40  # criterion-5 words 0-39: lengths i % 8 + 1, coefficients ≤ 3
PATH_WORDS = 6  # criterion-6 words 0-5: length 8
SIGNS = [(F(a), F(b), F(c)) for a in (1, -1) for b in (1, -1) for c in (1, -1)]


class Mismatch(Exception):
    """An output disagrees with the oracle or with a hand-derived value."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: bool = False


def rng_for(*parts) -> random.Random:
    """A generator seeded by a string, which Python hashes deterministically."""
    return random.Random(":".join(str(p) for p in parts))


@dataclass(frozen=True)
class Scaling:
    """The map a∘f∘d: x ↦ (a1·f1(d·x), a2·f2(d·x), a3·f3(d·x)), d = ±1 each.

    A right factor x ↦ c·x with |c| ≠ 1 would multiply a degree-k term by
    |c|^k and change the cost of every product; sign flips and one integer
    per component do not.
    """

    a: tuple[F, F, F]
    d: tuple[F, F, F]

    def apply(self, components) -> tuple[dict, dict, dict]:
        d1, d2, d3 = self.d
        return tuple(
            {e: ai * c * d1 ** e[0] * d2 ** e[1] * d3 ** e[2] for e, c in p.items()}
            for ai, p in zip(self.a, components)
        )

    def wrap(self, factors) -> tuple:
        """A word for a∘w∘d, given the factors of w."""
        zero = (0, 0, 0)
        return ((vertices.affine(diag(self.a), zero),) + tuple(factors)
                + (vertices.affine(diag(self.d), zero),))


def scaling(seed: int, key: str, r: int) -> Scaling:
    """The scaling of input `key` in round r; its signs repeat every 8 rounds."""
    signs = list(SIGNS)
    rng_for("signs", seed, key).shuffle(signs)
    rng = rng_for("values", seed, key, r)
    a = tuple(F(rng.choice((1, -1)) * rng.randrange(1, 10)) for _ in range(3))
    return Scaling(a, signs[r % len(signs)])


def diag(c) -> tuple[tuple[F, ...], ...]:
    return tuple(tuple(c[r] if r == s else F(0) for s in range(3)) for r in range(3))


def oracle_factors(word) -> list:
    """A tame word's factors as data for `oracle.apply_word`."""
    out = []
    for f in word.factors:
        if isinstance(f, vertices.Affine):
            out.append(("affine", f.matrix, f.shift))
        else:
            out.append(("elem", f.index, f.p))
    return out


def total_degree(components) -> tuple[int, int, int]:
    """Sum of the components' degrees, each read off its support."""
    degs = [oracle.degree(c) for c in components]
    return tuple(sum(d[k] for d in degs) for k in range(3))


def grlex_gt(a, b) -> bool:
    return oracle.grlex_key(a) > oracle.grlex_key(b)


def values(components, pts) -> list[list[int]]:
    """Rows of evaluations: one row per polynomial, one column per point."""
    return [[oracle.evaluate(c, pt) for pt in pts] for c in components]


# ---------------------------------------------------------------------------
# sweep: the criterion-5 traffic
# ---------------------------------------------------------------------------

class Sweep:
    """Random tame words through eval_word, two maxima, a wedge and two parachutes."""

    def __init__(self, seed: int, words: int = SWEEP_WORDS):
        self.seed = seed
        self.words = [
            wordgen.gen_tame(wordgen.GeneratorSpec(seed=i, length=i % 8 + 1, coeff_bound=3))
            for i in range(words)
        ]

    def round(self, r: int) -> list[Item]:
        out = []
        for i, word in enumerate(self.words):
            rng = rng_for("sweep", self.seed, r, i)
            w = vertices.TameWord(scaling(self.seed, f"sweep{i}", r).wrap(word.factors))
            f2: dict = {}
            for _ in range(rng.randrange(3) + 1):
                e = (0, rng.randrange(3), rng.randrange(3))
                coeff = rng.randrange(5) - 2
                if coeff:
                    f2[e] = F(coeff)
            f2.pop((0, 0, 0), None)
            if not f2:
                f2 = {(0, 1, 0): F(1)}
            k = rng.randrange(2) + 2
            pts = oracle.points(rng, 2)
            out.append(
                Item(
                    f"sweep[{i}]",
                    lambda w=w, f2=f2, k=k: self.run_word(w, f2, k),
                    lambda res, w=w, f2=f2, k=k, pts=pts: self.check_word(res, w, f2, k, pts),
                )
            )
        return out

    @staticmethod
    def run_word(w, f2, k):
        f = vertices.eval_word(w)
        tm = analysis.two_maxima_check(f)
        lo, mid, _ = sorted(f.components, key=lambda p: oracle.grlex_key(oracle.degree(p)))
        wedge = forms.wedge11(forms.differential(lo), forms.differential(mid))
        squared = analysis.parachute_check([lo, mid], {2: ONE})
        planted = poly.p_pow(f2, k)
        f1 = poly.add(X1, planted)
        drop = analysis.parachute_check([f1, f2], {1: ONE, 0: poly.neg(planted)})
        return f, tm, lo, mid, wedge, squared, drop

    @staticmethod
    def check_word(res, w, f2, k, pts):
        f, tm, lo, mid, wedge, squared, drop = res
        factors = oracle_factors(w)
        for pt in pts:
            expect(
                tuple(oracle.evaluate(c, pt) for c in f.components)
                == oracle.apply_word(factors, pt),
                "the composite differs from its word at a point",
            )
            expect(
                tuple(oracle.evaluate(c, pt) for c in wedge.coefficients)
                == oracle.minors2(lo, mid, pt),
                "df_lo∧df_mid differs from the Jacobian minors",
            )
        expect(oracle.constant_nonzero_jacobian(f.components, pts),
               "the composite's Jacobian is not a nonzero constant")
        expect(tm.attained >= 2, "two maxima: the maximum is attained once")
        d_lo = oracle.degree(lo)
        twice = tuple(2 * a for a in d_lo)
        expect(squared.lhs == twice and squared.virtual == twice
               and squared.multiplicity == 0,
               "φ = y²: lhs, virtual degree or multiplicity is wrong")
        d2 = oracle.degree(f2)
        expect(drop.lhs == (1, 0, 0) and drop.multiplicity == 1
               and drop.virtual == tuple(k * a for a in d2),
               "planted drop: lhs, virtual degree or multiplicity is wrong")


# ---------------------------------------------------------------------------
# paths: the criterion-6 traffic
# ---------------------------------------------------------------------------

def check_step_span(step, pts) -> None:
    """The target spans {lo, hi, h + P(hi, lo), 1}: h leaves the center."""
    lo, hi = step.center.representative
    source = step.auxiliary if step.kind == reduction.KIND_PROPER_K else step.source
    center_rows = values((lo, hi, ONE), pts)
    outside = [
        g for g in source.representative
        if oracle.rank(center_rows + values((g,), pts)) == 4
    ]
    expect(bool(outside), "every source component lies in the center's span")
    corrected = [
        (h + sum(oracle.residue(c) * pow(y, i, oracle.P) * pow(z, j, oracle.P)
                 for (i, j), c in step.data.items())) % oracle.P
        for h, z, y in zip(values(outside[:1], pts)[0], *center_rows[:2])
    ]
    mine = center_rows + [corrected]
    theirs = values(step.target.representative, pts) + values((ONE,), pts)
    expect(oracle.rank(mine) == 4 and oracle.rank(theirs) == 4
           and oracle.rank(mine + theirs) == 4,
           f"a {step.kind} target is not the corrected completion of its center")


class Paths:
    """reduction_path on length-8 random tame words, down to the identity."""

    def __init__(self, seed: int, words=range(PATH_WORDS)):
        self.seed = seed
        self.bases = []
        for i in words:
            word = wordgen.gen_tame(wordgen.GeneratorSpec(seed=i, length=8))
            self.bases.append((word, vertices.eval_word(word).components))

    def round(self, r: int) -> list[Item]:
        out = []
        for i, (word, comps) in enumerate(self.bases):
            rng = rng_for("paths", self.seed, r, i)
            sc = scaling(self.seed, f"paths{i}", r)
            f = vertices.Automorphism(sc.apply(comps), vertices.TameWord(sc.wrap(word.factors)))
            pts = oracle.points(rng, 5)
            out.append(
                Item(
                    f"paths[{i}]",
                    lambda f=f: reduction.reduction_path(f),
                    lambda res, f=f, pts=pts: self.check_path(res, f, pts),
                )
            )
        return out

    @staticmethod
    def check_path(path, f, pts) -> None:
        expect(isinstance(path, reduction.ReductionPath), "no path for a tame word")
        chain = [s.source for s in path.steps] + [path.terminal]
        start = chain[0].representative
        expect(oracle.rank(values(f.components + (ONE,), pts)
                           + values(start, pts)) == 4,
               "the first vertex is not the input's")
        for v in chain:
            expect(oracle.constant_nonzero_jacobian(v.representative, pts[:2]),
                   "a vertex representative has no constant nonzero Jacobian")
        totals = [total_degree(v.representative) for v in chain]
        expect(all(grlex_gt(a, b) for a, b in zip(totals, totals[1:])),
               "the total degree does not drop at every step")
        expect(totals[-1] == (1, 1, 1), "the path does not end at the identity")
        for step in path.steps:
            check_step_span(step, pts)


# ---------------------------------------------------------------------------
# golden: the user-facing commands
# ---------------------------------------------------------------------------

def P(*terms) -> dict:
    """Poly from (coeff, e1, e2, e3) terms."""
    out: dict = {}
    for c, a, b, d in terms:
        out[(a, b, d)] = out.get((a, b, d), F(0)) + F(c)
    return {e: c for e, c in out.items() if c}


# The hand-built K-move words: an odd-power corrected factor G followed by
# triangular clean-up factors.  Each word's vertex has one elementary-K move,
# whose center has strata (2δ, sδ) with δ = (s, 0, 0).
def golden_words():
    elem = vertices.elementary
    e2 = elem(2, P((1, 0, 0, 2)))
    ea = elem(2, P((1, 2, 0, 0)))
    cubic = (
        elem(3, P((1, 2, 0, 0), (-1, 0, 3, 0))),
        e2,
        elem(1, P((F(3, 2), 0, 1, 1), (1, 0, 0, 3))),
        ea,
        elem(3, P((F(3, 4), 1, 1, 0), (F(3, 8), 3, 0, 0))),
    )
    quintic = (
        elem(3, P((1, 2, 0, 0), (-1, 0, 5, 0))),
        e2,
        elem(1, P((F(15, 8), 0, 2, 1), (F(5, 2), 0, 1, 3), (1, 0, 0, 5))),
        ea,
        elem(3, P((F(15, 16), 1, 2, 0), (F(15, 16), 3, 1, 0), (F(5, 16), 5, 0, 0))),
    )
    return cubic, quintic


def nagata_components():
    """(x1 + 2·x2·w + x3·w², x2 + x3·w, x3), expanded by hand."""
    return (
        P((1, 1, 0, 0), (2, 0, 3, 0), (-2, 1, 1, 1),
          (1, 0, 4, 1), (-2, 1, 2, 2), (1, 2, 0, 3)),
        P((1, 0, 1, 0), (1, 0, 2, 1), (-1, 1, 0, 2)),
        P((1, 0, 0, 1)),
    )


NON_AUTOMORPHISM = "x1^2; x2; x3\n"


def fmt_coeff(c: F) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def fmt_poly(p: dict) -> str:
    """Text the tame3 grammar parses back to p exactly."""
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items(), key=lambda t: oracle.grlex_key(t[0]), reverse=True):
        mono = "*".join(
            f"x{v + 1}" + (f"^{k}" if k > 1 else "") for v, k in enumerate(e) if k
        )
        mag = abs(c)
        body = mono if mono and mag == 1 else (
            f"{fmt_coeff(mag)}*{mono}" if mono else fmt_coeff(mag)
        )
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    head_sign, head = parts[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def fmt_file(components, factors=None) -> str:
    lines = []
    if factors is not None:
        lines.append("word:")
        for f in factors:
            if isinstance(f, vertices.Affine):
                flat = [a for row in f.matrix for a in row] + list(f.shift)
                lines.append("affine " + " ".join(fmt_coeff(F(a)) for a in flat))
            else:
                lines.append(f"elem {f.index} ({fmt_poly(f.p)})")
    lines.extend(fmt_poly(c) for c in components)
    return "\n".join(lines) + "\n"


def call_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def mdeg(d) -> str:
    return "({},{},{})".format(*d)


def strata_text(degs) -> str:
    return " ".join(mdeg(d) for d in sorted(degs, key=oracle.grlex_key))


# Hand-derived facts about the three golden inputs.  deg f, and for the K-move
# words s, from the construction; the two-maxima line of f3 is deg f3 plus
# deg df1∧df2, which is (4,0,1) for the cubic and (5,3,0) for the quintic.
GOLDEN = {
    "cubic": {"degs": ((9, 0, 0), (6, 0, 0), (7, 0, 1)), "s": 3,
              "f3_line": "deg f3 + deg wedge(others): (11,0,2)"},
    "quintic": {"degs": ((25, 0, 0), (10, 0, 0), (20, 3, 0)), "s": 5,
                "f3_line": "deg f3 + deg wedge(others): (25,6,0)"},
    "nagata": {"degs": ((2, 0, 3), (1, 0, 2), (0, 0, 1)), "s": None,
               "f3_line": None},
}

NAGATA_CERTIFICATE = [
    "degrees: (0,0,1) (1,0,2) (2,0,3)",
    "pairwise independent strata: (1,2) (1,3) (2,3)",
    "no stratum is a natural combination of the others: 1 2 3",
    "no K-move pairing: stratum (0, 0, 1) is not twice an integral degree",
    "no K-move pairing: stratum (1, 0, 2) is not twice an integral degree",
    "no K-move pairing: stratum (2, 0, 3) is not twice an integral degree",
]


def path_shape(doc) -> list:
    """Move kinds and every degree of a `path --json` document."""
    return [
        (s["kind"], s["source"]["degrees"], s["target"]["degrees"],
         s["center"]["degrees"])
        for s in doc["steps"]
    ]


class Golden:
    """The CLI on the cubic, quintic and Nagata maps, plus criterion-4 calls."""

    COMMANDS = ("certify-nontame", "path", "reduce", "two-maxima", "parachute", "vertex-eq")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        cubic, quintic = golden_words()
        self.words = {"cubic": cubic, "quintic": quintic}
        self.components = {
            name: vertices.eval_word(vertices.TameWord(w)).components
            for name, w in self.words.items()
        }
        self.components["nagata"] = nagata_components()
        self.quintic_target = vertices.eval_word(vertices.TameWord(quintic[1:])).components
        self.bad = workdir / "non-automorphism.auto"
        self.bad.write_text(NON_AUTOMORPHISM, encoding="utf-8")
        self.reference: dict = {}

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def round(self, r: int) -> list[Item]:
        out = []
        rng = rng_for("golden", self.seed, r)
        for name, comps in self.components.items():
            sc = scaling(self.seed, name, r)
            mine = sc.apply(comps)
            factors = None
            if name in self.words:
                factors = sc.wrap(self.words[name])
            src = self._write(f"{name}.auto", fmt_file(mine, factors))
            m = [[F(rng.randrange(-3, 4)) for _ in range(3)] for _ in range(3)]
            for k in range(3):
                m[k][k] = F(7)  # diagonally dominant, so invertible
            b = [F(rng.randrange(-5, 6)) for _ in range(3)]
            left = tuple(
                {e: v for e, v in _affine_row(m[k], b[k], mine).items() if v}
                for k in range(3)
            )
            other = self._write(f"{name}-left.auto", fmt_file(left))
            for cmd in self.COMMANDS:
                argv = {
                    "path": ["path", "--json", src],
                    "parachute": ["parachute", src, "--phi", "y^2"],
                    "vertex-eq": ["vertex-eq", src, other],
                }.get(cmd, [cmd, src])
                out.append(
                    Item(
                        f"golden[{name} {cmd}]",
                        lambda argv=argv: call_cli(argv),
                        lambda res, name=name, cmd=cmd: self.check_cli(name, cmd, res),
                    )
                )
        sc = scaling(self.seed, "proper-K", r)
        q = sc.apply(self.components["quintic"])
        qt = sc.apply(self.quintic_target)
        # f1 + f2² of the unscaled word is (f1 + λ·f2²)/a1 of the scaled one
        lam = sc.a[0] / sc.a[1] ** 2
        state: dict = {}
        out.append(Item(
            "golden[proper-K normalisation]",
            lambda: self.run_proper_k(q, qt, lam, state),
            self.check_proper_k,
        ))
        out.append(Item(
            "golden[square rewrite]",
            lambda: self.run_square(state),
            self.check_square,
        ))
        for cmd in ("certify-nontame", "path"):
            out.append(Item(
                f"golden[non-automorphism {cmd}]",
                lambda cmd=cmd: call_cli([cmd, str(self.bad)]),
                self.check_rejected,
                known_fault=True,
            ))
        return out

    # -- checks of the CLI output ------------------------------------------

    def same_as_before(self, key, shape) -> None:
        ref = self.reference.setdefault(key, shape)
        expect(ref == shape, f"{key}: the scaled input changed the output's degrees")

    def check_cli(self, name: str, cmd: str, res) -> None:
        code, out = res
        facts = GOLDEN[name]
        lines = out.splitlines()
        strata = strata_text(facts["degs"])
        if cmd == "certify-nontame":
            expect(code == 0, f"{name} certify-nontame exit {code}")
            if name == "nagata":
                expect(lines[:6] == NAGATA_CERTIFICATE, "Nagata certificate lines")
                searched = lines[6:]
                expect(len(searched) == 3 and all(
                    l.startswith("  elementary cancellation (exact) at [") for l in searched),
                    "Nagata certificate: three searched centers")
            else:
                expect(lines == ["no certificate: degree arithmetic does not rule out a tame word"],
                       f"{name}: a tame word was certified non-tame")
        elif cmd == "path":
            doc = json.loads(out)
            expect(doc["degrees"] == [list(d) for d in sorted(facts["degs"], key=oracle.grlex_key)],
                   f"{name} path: input degrees")
            if name == "nagata":
                expect(code == 2 and "report" in doc and doc["steps"] == [],
                       "Nagata path: a reduction was found")
                return
            expect(code == 0, f"{name} path exit {code}")
            steps = doc["steps"]
            first = steps[0]
            lo, hi = first["center"]["degrees"]
            s = facts["s"]
            delta = (s, 0, 0)
            expect(first["kind"] == "elementary-K"
                   and lo == [2 * a for a in delta] and hi == [s * a for a in delta],
                   f"{name}: the K-step's pivotal degree or s is wrong")
            totals = [tuple(map(sum, zip(*st["source"]["degrees"]))) for st in steps]
            totals.append(tuple(map(sum, zip(*doc["terminal"]["degrees"]))))
            expect(all(grlex_gt(a, b) for a, b in zip(totals, totals[1:]))
                   and totals[-1] == (1, 1, 1),
                   f"{name} path: degrees do not drop to the identity")
            self.same_as_before((name, cmd), path_shape(doc))
        elif cmd == "reduce":
            if name == "nagata":
                expect(code == 2 and lines[0] == f"no reduction found for degrees {strata}",
                       "Nagata reduce: a reduction was found")
                return
            expect(code == 0 and lines[0] == "step 1: elementary-K",
                   f"{name} reduce: not an elementary-K step")
            expect(lines[4].startswith(f"  degrees: {strata}  ->  "), f"{name} reduce: degrees")
            self.same_as_before((name, cmd), (lines[0], lines[4]))
        elif cmd == "two-maxima":
            expect(code == 0 and len(lines) == 4, f"{name} two-maxima exit {code}")
            attained = int(lines[3].split("attained ")[1].split()[0])
            expect(attained >= 2, f"{name}: the maximum is attained once")
            if facts["f3_line"]:
                expect(lines[2] == facts["f3_line"], f"{name}: deg f3 + deg df1∧df2")
            self.same_as_before((name, cmd), lines)
        elif cmd == "parachute":
            twice = mdeg(tuple(2 * a for a in facts["degs"][0]))
            expect(code == 0 and lines == [
                f"deg phi(f1): {twice}", f"parachute bound: {twice}", "multiplicity: 0",
                f"virtual degree: {twice}", "holds: yes",
            ], f"{name} parachute y²")
        elif cmd == "vertex-eq":
            expect(code == 0 and lines == ["equal"], f"{name}: a left-affine composite differs")

    @staticmethod
    def check_rejected(res) -> None:
        code, _ = res
        expect(code == 1, f"a non-automorphism exits {code}, not 1")

    # -- criterion 4 as library calls --------------------------------------

    @staticmethod
    def run_proper_k(q, qt, lam, state):
        v5 = vertices.vertex3(q)
        u5 = vertices.vertex3(qt)
        f1, f2, f3 = q
        v5p = vertices.vertex3((poly.add(f1, poly.scale(lam, poly.mul(f2, f2))), f2, f3))
        ev = reduction.classify_proper_K(v5p, v5, u5)
        state.update(v5=v5, v5p=v5p, ev=ev)
        return ev

    @staticmethod
    def check_proper_k(ev) -> None:
        expect(ev is not None and ev.all_hold, "the proper-K evidence fails")
        expect(not ev.normal and ev.s == 5, "the proper-K step is normal or s ≠ 5")

    @staticmethod
    def run_square(state):
        v5, v5p, ev = state["v5"], state["v5p"], state["ev"]
        prime = reduction.reduce_once(v5)
        data2 = reduction._connecting_bipoly(v5, ev.aux_center, v5p)
        second = reduction.ReductionStep(
            kind=reduction.KIND_SIMPLE, source=v5, target=v5p,
            center=ev.aux_center, pivot=ev.pivot, data=data2, strict=False,
        )
        sq = reduction.square_rewrite(v5, prime, second)
        return v5p, sq, reduction.classify_elementary_K(v5p, sq.u)

    @staticmethod
    def check_square(res) -> None:
        v5p, sq, kev = res
        expect(kev is not None, "the rewritten move is not elementary-K")
        expect(grlex_gt(total_degree(v5p.representative), total_degree(sq.u.representative)),
               "the square rewrite does not lower the degree")
        pts = oracle.points(random.Random(5), 2)
        expect(oracle.constant_nonzero_jacobian(sq.u.representative, pts),
               "the rewritten vertex has no constant nonzero Jacobian")


def _affine_row(row, shift, comps) -> dict:
    """Σ row[k]·comps[k] + shift, by plain dict arithmetic."""
    out: dict = {(0, 0, 0): F(shift)} if shift else {}
    for a, p in zip(row, comps):
        for e, c in p.items():
            out[e] = out.get(e, F(0)) + a * c
    return out


WORKLOADS = {"sweep": Sweep, "paths": Paths, "golden": Golden}

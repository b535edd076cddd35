"""Command-line surface over the library.

Subcommands work on automorphism files (see `tame3.parsing` for the format):

    deg FILE                    stratified and total vertex degrees
    compose FILE1 FILE2         print the composition f1 ∘ f2
    wedge FILE                  pairwise degrees deg dfi∧dfj
    parachute FILE --phi EXPR   evaluate the parachute bound for φ
    two-maxima FILE             the three form degrees and the recurring max
    reduce FILE [--budget N]    one strict move off the vertex
    path FILE [--budget N] [--json]   full reduction path to the identity
    vertex-eq FILE1 FILE2       same vertex (affine orbit) or not
    certify-nontame FILE        budget-free non-tameness certificate
    gen --seed S --len N        print a seeded random tame automorphism

Exit codes: 0 success, 1 usage or input errors, 2 when no reduction was
found (the structured report is printed), 3 when the search budget ran out.
``TAME3_BUDGET`` sets the default budget factor; ``--budget`` wins over it.

``--json`` emits one object: ``input`` (component strings), ``steps``
(every ReductionStep field per entry; ``data`` as ``[i, j, coeff]`` triples
binding y = higher center component, z = lower), ``terminal`` and
``degrees`` (stratified, ascending).  Multidegrees are 3-arrays, the degree
of the zero polynomial is the string "-inf", rationals are strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from tame3 import analysis, forms, poly
from tame3.errors import BudgetExceeded, ParseError, Tame3Error
from tame3.parsing import (
    PHI_VARIABLES,
    format_automorphism,
    format_poly,
    parse_automorphism,
    parse_poly,
)
from tame3.poly import MultiDegree, Poly
from tame3.reduction import (
    DEFAULT_BUDGET,
    NonReducibleReport,
    ReductionStep,
    SearchAttempt,
    _scaled,
    nontame_certificate,
    reduce_once,
    reduction_path,
)
from tame3.vertices import (
    Automorphism,
    Line,
    Point,
    Vertex3,
    compose,
    eval_word,
    is_identity,
    stratified_degrees,
    vertex3,
    vertex_degrees,
    vertex_equal,
)
from tame3.wordgen import GeneratorSpec, gen_tame


class _CliError(Exception):
    """Usage or input problem; message goes to stderr, exit code is 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract says 1
        raise _CliError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Small formatters
# ---------------------------------------------------------------------------

def _mdeg(d: MultiDegree) -> str:
    return "-inf" if d is None else "({},{},{})".format(*d)


def _mdeg_json(d: MultiDegree):
    return "-inf" if d is None else list(d)


def _bipoly_str(data) -> str:
    if not data:
        return "0"
    parts = []
    for (i, j), c in sorted(data.items(), key=lambda t: (t[0][0] + t[0][1], t[0])):
        monomial = "*".join(
            s for s in (f"y^{i}" if i > 1 else "y" if i else None,
                        f"z^{j}" if j > 1 else "z" if j else None)
            if s
        )
        if not monomial:
            parts.append(str(c))
        elif c == 1:
            parts.append(monomial)
        elif c == -1:
            parts.append(f"-{monomial}")
        else:
            parts.append(f"{c}*{monomial}")
    return " + ".join(parts).replace("+ -", "- ")


def _strata(v: Vertex3) -> str:
    return " ".join(_mdeg(d) for d in vertex_degrees(v).stratified)


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (Vertex3, Line)):
        return {
            "representative": [format_poly(c) for c in obj.representative],
            "degrees": [_mdeg_json(poly.deg(c)) for c in obj.representative],
        }
    if isinstance(obj, Point):
        return {"representative": format_poly(obj.representative)}
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        if obj and len(next(iter(obj))) == 2:  # BiPoly over a center
            return [[i, j, str(c)] for (i, j), c in sorted(obj.items())]
        return format_poly(obj)
    if isinstance(obj, tuple):
        return [_jsonable(x) for x in obj]
    return str(obj)


def _print_step(step: ReductionStep, index: int) -> None:
    lo, hi = step.center.representative
    print(f"step {index}: {step.kind}" + ("" if step.strict else " (non-strict)"))
    print(f"  center: [{format_poly(lo)}, {format_poly(hi)}]")
    print(f"  pivot: [{format_poly(step.pivot.representative)}]")
    print(f"  data: {_bipoly_str(step.data)}  with y = {format_poly(hi)}, z = {format_poly(lo)}")
    print(f"  degrees: {_strata(step.source)}  ->  {_strata(step.target)}")


def _print_attempt(attempt: SearchAttempt) -> None:
    where = (
        "[" + ", ".join(format_poly(c) for c in attempt.center.representative) + "]"
        if attempt.center is not None
        else "-"
    )
    print(f"  {attempt.search} at {where}: {attempt.outcome}")


def _print_report(report: NonReducibleReport) -> None:
    print(f"no reduction found for degrees {_strata(report.source)}")
    for attempt in report.attempts:
        _print_attempt(attempt)


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------

def _load(path: str) -> Automorphism:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")
    try:
        return parse_automorphism(text)
    except ParseError as exc:
        raise _CliError(f"{path}:{exc}")
    except Tame3Error as exc:
        raise _CliError(f"{path}: {exc}")


def _budget(args):
    factor = args.budget
    if factor is None:
        env = os.environ.get("TAME3_BUDGET")
        if env:
            try:
                factor = int(env)
            except ValueError:
                raise _CliError(f"TAME3_BUDGET must be an integer, got {env!r}")
    if factor is None:
        factor = 1
    if factor < 1:
        raise _CliError(f"budget factor must be positive, got {factor}")
    return _scaled(DEFAULT_BUDGET, factor)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_deg(args) -> int:
    out = stratified_degrees(_load(args.file).components)
    print("stratified:", " ".join(_mdeg(d) for d in out.stratified))
    print("total:", _mdeg(out.total))
    return 0


def _cmd_compose(args) -> int:
    f, g = _load(args.file1), _load(args.file2)
    sys.stdout.write(format_automorphism(compose(f, g)))
    return 0


def _cmd_wedge(args) -> int:
    c = _load(args.file).components
    for i, j in ((0, 1), (0, 2), (1, 2)):
        print(f"deg df{i + 1}^df{j + 1}: {_mdeg(forms.wedge_degree(c[i], c[j]))}")
    return 0


def _cmd_parachute(args) -> int:
    f = _load(args.file)
    try:
        q = parse_poly(args.phi, PHI_VARIABLES)
    except ParseError as exc:
        raise _CliError(f"--phi: {exc}")
    grouped: dict[int, Poly] = {}
    for e, c in q.items():
        grouped.setdefault(e[0], {})[(0, e[1], e[2])] = c
    phi = analysis.y_poly(
        {i: poly.substitute(p, f.components) for i, p in grouped.items()}
    )
    report = analysis.parachute_check(list(f.components), phi)
    print(f"deg phi(f1): {_mdeg(report.lhs)}")
    print(f"parachute bound: {_mdeg(report.rhs)}")
    print(f"multiplicity: {report.multiplicity}")
    print(f"virtual degree: {_mdeg(report.virtual)}")
    print("holds:", "yes" if report.holds else "no")
    return 0


def _cmd_two_maxima(args) -> int:
    report = analysis.two_maxima_check(_load(args.file))
    for i, q in enumerate(report.quantities, start=1):
        print(f"deg f{i} + deg wedge(others): {_mdeg(q)}")
    print(f"maximum {_mdeg(report.maximum)} attained {report.attained} times")
    return 0


def _cmd_reduce(args) -> int:
    v = vertex3(_load(args.file).components)
    if is_identity(v):
        print("identity vertex: nothing to reduce")
        return 0
    out = reduce_once(v, _budget(args))
    if isinstance(out, NonReducibleReport):
        _print_report(out)
        return 2
    _print_step(out, 1)
    return 0


def _cmd_path(args) -> int:
    f = _load(args.file)
    out = reduction_path(f, _budget(args))
    failed = isinstance(out, NonReducibleReport)
    if args.json:
        doc = {
            "input": [format_poly(c) for c in f.components],
            "steps": [] if failed else [_jsonable(s) for s in out.steps],
            "terminal": None if failed else _jsonable(out.terminal),
            "degrees": [
                _mdeg_json(d) for d in stratified_degrees(f.components).stratified
            ],
        }
        if failed:
            doc["report"] = _jsonable(out)
        print(json.dumps(doc, indent=2))
        return 2 if failed else 0
    if failed:
        _print_report(out)
        return 2
    for i, step in enumerate(out.steps, start=1):
        _print_step(step, i)
    print(f"terminal: {_strata(out.terminal)}"
          + ("  (identity)" if is_identity(out.terminal) else ""))
    return 0


def _cmd_vertex_eq(args) -> int:
    a = vertex3(_load(args.file1).components)
    b = vertex3(_load(args.file2).components)
    print("equal" if vertex_equal(a, b) else "different")
    return 0


def _cmd_certify_nontame(args) -> int:
    cert = nontame_certificate(_load(args.file))
    if cert is None:
        print("no certificate: degree arithmetic does not rule out a tame word")
        return 0
    print("degrees:", " ".join(_mdeg(d) for d in cert.degrees))
    pairs = " ".join(f"({i + 1},{j + 1})" for i, j in cert.independence)
    print(f"pairwise independent strata: {pairs}")
    comps = " ".join(str(i + 1) for i in cert.combination_free)
    print(f"no stratum is a natural combination of the others: {comps}")
    for note in cert.no_two_delta:
        print(f"no K-move pairing: {note}")
    for attempt in cert.searched_centers:
        _print_attempt(attempt)
    return 0


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(
        seed=args.seed,
        length=args.len,
        max_elem_degree=args.max_elem_degree,
        coeff_bound=args.coeff_bound,
    )
    try:
        word = gen_tame(spec)
    except ValueError as exc:
        raise _CliError(str(exc))
    sys.stdout.write(format_automorphism(eval_word(word)))
    return 0


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="tame3", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, run, **files):
        p = sub.add_parser(name)
        for arg, help_ in files.items():
            p.add_argument(arg, help=help_)
        p.set_defaults(run=run)
        return p

    cmd("deg", _cmd_deg, file="automorphism file")
    cmd("compose", _cmd_compose, file1="outer automorphism", file2="inner automorphism")
    cmd("wedge", _cmd_wedge, file="automorphism file")
    p = cmd("parachute", _cmd_parachute, file="automorphism file")
    p.add_argument("--phi", required=True,
                   help="polynomial in y, x2, x3; y stands for f1, x2/x3 for f2/f3")
    cmd("two-maxima", _cmd_two_maxima, file="automorphism file")
    for name, run in (("reduce", _cmd_reduce), ("path", _cmd_path)):
        p = cmd(name, run, file="automorphism file")
        p.add_argument("--budget", type=int, default=None,
                       help="budget factor (default 1 or TAME3_BUDGET)")
        if name == "path":
            p.add_argument("--json", action="store_true",
                           help="machine-readable step record")
    cmd("vertex-eq", _cmd_vertex_eq, file1="automorphism file", file2="automorphism file")
    cmd("certify-nontame", _cmd_certify_nontame, file="automorphism file")
    p = sub.add_parser("gen")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--len", type=int, required=True, help="factor count")
    p.add_argument("--max-elem-degree", type=int, default=4)
    p.add_argument("--coeff-bound", type=int, default=9)
    p.set_defaults(run=_cmd_gen)
    return parser


def _joined_phi(argv: list[str]) -> list[str]:
    """argv with each ``--phi VALUE`` before any ``--`` as ``--phi=VALUE``.

    argparse reads a separate VALUE that begins with '-' (``-y``) as an
    option; joined, φ may begin with a minus sign.
    """
    out: list[str] = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            return out + [arg, *rest]
        if arg == "--phi":
            value = next(rest, None)
            if value is not None:
                arg = f"--phi={value}"
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_joined_phi(sys.argv[1:] if argv is None else argv))
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (`tame3 path --json F | head -1`); that is not
        # an error.  Point stdout at devnull so the exit-time flush of what is
        # still buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except _CliError as exc:
        msg = str(exc)
        print(msg if msg.startswith("tame3") else f"tame3: {msg}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"tame3: {exc}", file=sys.stderr)
        return 3
    except Tame3Error as exc:
        print(f"tame3: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else int(exc.code)


if __name__ == "__main__":
    sys.exit(main())

"""Exact sparse polynomials in x1, x2, x3 over ℚ, with graded-lex multidegrees.

Representation:
  Exponent    = (a1, a2, a3)              # powers of x1, x2, x3
  Poly        = dict[Exponent, Fraction]  # no zero coefficients stored
  MultiDegree = Exponent | None           # None encodes −∞ (the degree of 0)

The zero polynomial is the empty dict.  All arithmetic is exact; nothing in
this package ever rounds.

Multidegrees are ordered graded-lexicographically: compare a1+a2+a3 first,
then (a1, a2, a3) left to right; None sits strictly below every triple.  The
same comparator also serves the *extended* comparisons needed by resonance
analysis — differences and rational multiples of degrees, which live in ℤ³ or
ℚ³.  Those are compared exactly via Fraction arithmetic, never through floats.

Products run on packed integers.  ``_cleared`` clears the denominators of
one or more polynomials over one common denominator and packs each monomial
into one int (a1 << 42 | a2 << 21 | a3), so multiplying monomials is integer
addition; the degree cap below keeps every exponent component well inside
its 21-bit field.  ``_sum_of_products`` convolves: Σ aᵢ·bᵢ over pairs of
packed maps, in one integer accumulator.  ``mul`` calls it with one pair and
reattaches a rational scale; ``forms.wedge21`` calls it with three.  The only
other loop over term pairs is the one-pass minors kernel of ``forms.wedge11``.

Evaluation runs through one Horner loop, ``_horner1``: Σ cᵢ·tⁱ for a
sparse map of polynomial coefficients cᵢ.  ``substitute`` runs it once per
variable, and ``analysis.eval_y`` runs it on a polynomial in y.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from tame3.errors import DegreeOverflow, ZeroPolynomial

Exponent = tuple[int, int, int]
Poly = dict[Exponent, Fraction]
MultiDegree = Exponent | None

# Safety cap on total degree.  Exponents are exact Python ints and cannot
# overflow; the cap exists so a runaway search loop fails loudly instead of
# grinding on astronomically large polynomials.  Everything in the reduction
# theory at desk scale stays below total degree a few hundred.
MAX_TOTAL_DEGREE = 10_000

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Multidegree order
# ---------------------------------------------------------------------------

def grlex_key(d: tuple) -> tuple:
    """Sort key realizing the graded-lex order on finite (ℤ³/ℚ³) triples."""
    return (d[0] + d[1] + d[2], d[0], d[1], d[2])


def mdeg_cmp(a: MultiDegree, b: MultiDegree) -> int:
    """Compare two multidegrees; returns −1, 0 or 1.

    Accepts the extended values used in resonance analysis: entries may be
    negative ints or Fractions, as long as both sides are finite or None.
    """
    if a is None:
        return 0 if b is None else -1
    if b is None:
        return 1
    ka, kb = grlex_key(a), grlex_key(b)
    return (ka > kb) - (ka < kb)


def mdeg_lt(a: MultiDegree, b: MultiDegree) -> bool:
    """a < b in graded-lex order."""
    return mdeg_cmp(a, b) < 0


def mdeg_le(a: MultiDegree, b: MultiDegree) -> bool:
    """a ≤ b in graded-lex order."""
    return mdeg_cmp(a, b) <= 0


def mdeg_gt(a: MultiDegree, b: MultiDegree) -> bool:
    """a > b in graded-lex order."""
    return mdeg_cmp(a, b) > 0


def mdeg_ge(a: MultiDegree, b: MultiDegree) -> bool:
    """a ≥ b in graded-lex order."""
    return mdeg_cmp(a, b) >= 0


def mdeg_max(*degrees: MultiDegree) -> MultiDegree:
    """Maximum of the given multidegrees (None when all are None)."""
    best: MultiDegree = None
    for d in degrees:
        if d is not None and (best is None or mdeg_lt(best, d)):
            best = d
    return best


def mdeg_add(a: MultiDegree, b: MultiDegree) -> MultiDegree:
    """Component-wise sum; None absorbs (deg 0·g = −∞)."""
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def mdeg_sub(a: tuple, b: tuple) -> tuple:
    """Component-wise difference of *finite* degrees; result lives in ℤ³.

    Only for the extended comparisons — the result is not itself a monomial
    degree and may have negative entries.
    """
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def mdeg_scale(c: int | Fraction, d: tuple) -> tuple:
    """Scalar multiple of a finite degree; result lives in ℚ³."""
    return (c * d[0], c * d[1], c * d[2])


# ---------------------------------------------------------------------------
# Construction and inspection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """A single nonzero term: ``coefficient · x1^a1 x2^a2 x3^a3``."""

    coefficient: Fraction
    exponents: Exponent


def zero() -> Poly:
    """The zero polynomial."""
    return {}


def const(c: int | Fraction) -> Poly:
    """The constant polynomial c."""
    c = Fraction(c)
    return {} if c == 0 else {(0, 0, 0): c}


def variable(i: int) -> Poly:
    """The coordinate polynomial x_i for i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise ValueError(f"variable index must be 1, 2 or 3, got {i}")
    e = [0, 0, 0]
    e[i - 1] = 1
    return {tuple(e): Fraction(1)}


def monomial(exponents: Exponent, coefficient: int | Fraction = 1) -> Poly:
    """The single-term polynomial ``coefficient · x^exponents``."""
    if min(exponents) < 0:
        raise ValueError(f"negative exponent in {exponents}")
    if sum(exponents) > MAX_TOTAL_DEGREE:
        raise DegreeOverflow(f"total degree {sum(exponents)} exceeds cap")
    c = Fraction(coefficient)
    return {} if c == 0 else {tuple(exponents): c}


def is_zero(p: Poly) -> bool:
    """True iff p is the zero polynomial."""
    return not p


def deg(p: Poly) -> MultiDegree:
    """Graded-lex maximum of the support; None (−∞) for the zero polynomial."""
    if not p:
        return None
    return max(p, key=grlex_key)


def top_term(p: Poly) -> Term:
    """The unique term t with deg(p − t) < deg(p)."""
    if not p:
        raise ZeroPolynomial("the zero polynomial has no top term")
    e = max(p, key=grlex_key)
    return Term(p[e], e)


def sorted_terms(p: Poly) -> list[tuple[Exponent, Fraction]]:
    """Terms in descending graded-lex order (the deterministic print order)."""
    return [(e, p[e]) for e in sorted(p, key=grlex_key, reverse=True)]


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------

def add(a: Poly, b: Poly) -> Poly:
    """a + b."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, _ZERO) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def sub(a: Poly, b: Poly) -> Poly:
    """a − b."""
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, _ZERO) - c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def neg(a: Poly) -> Poly:
    """−a."""
    return {e: -c for e, c in a.items()}


def scale(c: int | Fraction, a: Poly) -> Poly:
    """c · a for a rational scalar c."""
    c = Fraction(c)
    if c == 0:
        return {}
    return {e: c * coeff for e, coeff in a.items()}


def _pack(e: Exponent) -> int:
    return (e[0] << 42) | (e[1] << 21) | e[2]


_MASK = (1 << 21) - 1


def _unpack(k: int) -> Exponent:
    return (k >> 42, (k >> 21) & _MASK, k & _MASK)


def _total(k: int) -> int:
    """Total degree of a packed monomial."""
    return (k >> 42) + ((k >> 21) & _MASK) + (k & _MASK)


def _top_total(p: dict[int, int]) -> int:
    """Largest total degree in the support of a nonzero packed map."""
    return max(map(_total, p))


def _check_cap(d: int) -> None:
    """Raise DegreeOverflow for a product of total degree d past the cap."""
    if d > MAX_TOTAL_DEGREE:
        raise DegreeOverflow(f"product degree {d} exceeds cap {MAX_TOTAL_DEGREE}")


def _packed_deg(p: dict[int, int]) -> MultiDegree:
    """Graded-lex degree of a packed map, zero entries ignored; None if all are."""
    top = max(((_total(k), k) for k, c in p.items() if c), default=None)
    return None if top is None else _unpack(top[1])


def _cleared(*ps: Poly) -> tuple[list[dict[int, int]], int]:
    """Packed integer coefficient maps of ps over one common denominator, and it."""
    den = reduce(math.lcm, (c.denominator for p in ps for c in p.values()), 1)
    return [
        {_pack(e): c.numerator * (den // c.denominator) for e, c in p.items()}
        for p in ps
    ], den


def _sum_of_products(
    pairs: Iterable[tuple[dict[int, int], dict[int, int]]],
) -> dict[int, int]:
    """Σ a·b over pairs of packed integer maps, in one accumulator.

    Checks the degree cap on every pair.  Zero sums stay in the result.
    """
    out: dict[int, int] = {}
    get = out.get
    for pa, pb in pairs:
        if pa and pb:
            _check_cap(_top_total(pa) + _top_total(pb))
        if len(pa) < len(pb):  # outer loop over the larger operand
            pa, pb = pb, pa
        items_b = list(pb.items())
        for ea, ca in pa.items():
            for eb, cb in items_b:
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
    return out


def _partials(p: dict[int, int]) -> list[dict[int, int]]:
    """∂p/∂x1, ∂p/∂x2, ∂p/∂x3 of a packed map, taken on the packed keys."""
    return [
        {k - (1 << s): c * e for k, c in p.items() if (e := (k >> s) & _MASK)}
        for s in (42, 21, 0)
    ]


def _unpacked(p: dict[int, int], den: int) -> Poly:
    """The Poly of a packed integer map over den, zeros dropped."""
    return {_unpack(k): Fraction(c, den) for k, c in p.items() if c}


def mul(a: Poly, b: Poly) -> Poly:
    """a · b (exact; deg(a·b) = deg a + deg b)."""
    if not a or not b:
        return {}
    (pa,), den_a = _cleared(a)
    (pb,), den_b = _cleared(b)
    return _unpacked(_sum_of_products(((pa, pb),)), den_a * den_b)


def p_pow(p: Poly, n: int) -> Poly:
    """p**n for n ≥ 0, by binary exponentiation (p**0 = 1, including p = 0)."""
    if n < 0:
        raise ValueError(f"exponent must be non-negative, got {n}")
    result = const(1)
    base = p
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def equal(a: Poly, b: Poly) -> bool:
    """Exact equality (representations are canonical, so dict equality)."""
    return a == b


def derivative(p: Poly, i: int) -> Poly:
    """Partial derivative ∂p/∂x_i for i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise ValueError(f"variable index must be 1, 2 or 3, got {i}")
    ax = i - 1
    out: Poly = {}
    for e, c in p.items():
        k = e[ax]
        if k:
            e2 = list(e)
            e2[ax] = k - 1
            out[tuple(e2)] = c * k
    return out


# ---------------------------------------------------------------------------
# Substitution (composition of polynomial maps)
# ---------------------------------------------------------------------------

def substitute(p: Poly, target: tuple[Poly, Poly, Poly]) -> Poly:
    """p with x1, x2, x3 replaced by the three target polynomials, expanded.

    Composition of maps is component-wise substitution:
    (f ∘ g)_i = substitute(f_i, g).  Evaluation is by nested Horner on one
    variable at a time, with gap powers computed by binary exponentiation, so
    no per-monomial power products are ever materialized.
    """
    return _horner(p, target, 0)


def _horner(p: Poly, target: tuple[Poly, Poly, Poly], axis: int) -> Poly:
    if not p:
        return {}
    if axis == 3:
        return dict(p)  # all exponents cleared: a constant
    groups: dict[int, Poly] = {}
    for e, c in p.items():
        rest = list(e)
        k = rest[axis]
        rest[axis] = 0
        groups.setdefault(k, {})[tuple(rest)] = c
    return _horner1(
        {k: _horner(q, target, axis + 1) for k, q in groups.items()}, target[axis]
    )


def _horner1(coeffs: dict[int, Poly], t: Poly) -> Poly:
    """Σ coeffs[i]·tⁱ by Horner over the sparse exponents i, with gap powers."""
    if not coeffs:
        return {}
    exps = sorted(coeffs, reverse=True)
    acc = dict(coeffs[exps[0]])
    prev = exps[0]
    for i in exps[1:]:
        acc = add(mul(acc, p_pow(t, prev - i)), coeffs[i])
        prev = i
    if prev:
        acc = mul(acc, p_pow(t, prev))
    return acc

"""Seeded random tame words for property suites.

Reproducibility contract: all randomness comes from Python's Mersenne
Twister (``random.Random(seed)``) drawn exclusively as 64-bit words via
``getrandbits(64)``; every primitive decision consumes exactly one word,
reduced with ``% n``.  The word stream and the derivation below together
determine the output, so identical seeds give identical words on every
platform.

Shape of a word: factor kinds strictly alternate between invertible affine
and elementary, the starting kind drawn from the stream.  Each elementary
factor is accepted only when its correction strictly dominates every
component of the composite built so far — the corrected component is then
the strict top of the new vertex, whose minimal line is spanned by the
untouched components, so every layer can be stripped again from the outside
in and reduction paths exist by construction.  The total degree of the
composite is capped at ``MAX_WORD_DEGREE``; generation stops early when no
admissible elementary factor fits under the cap, so a word may come out
shorter than requested.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from tame3 import linalg, poly
from tame3.poly import Poly
from tame3.vertices import Elementary, TameWord, affine, elementary, identity_automorphism

# Cap on the total degree of any component of the running composite.  Keeps
# the property suites fast: exact reduction of a vertex costs roughly the
# support of its top component, which grows quickly with total degree.
MAX_WORD_DEGREE = 16

_AFFINE_TRIES = 100
_ELEM_TRIES = 50


@dataclass(frozen=True)
class GeneratorSpec:
    """Caps for one generated word; ``length`` counts factors of both kinds."""

    seed: int
    length: int
    max_elem_degree: int = 4
    coeff_bound: int = 9


def _draw(rng: random.Random, n: int) -> int:
    """Uniform draw from range(n), consuming exactly one 64-bit word."""
    return rng.getrandbits(64) % n


def _draw_coeff(rng: random.Random, bound: int) -> Fraction:
    """Nonzero rational with numerator and denominator within the bound."""
    num = _draw(rng, 2 * bound) - bound
    if num >= 0:
        num += 1
    return Fraction(num, _draw(rng, bound) + 1)


def _draw_affine(rng: random.Random, bound: int):
    for _ in range(_AFFINE_TRIES):
        m = tuple(
            tuple(Fraction(_draw(rng, 2 * bound + 1) - bound) for _ in range(3))
            for _ in range(3)
        )
        if linalg.det3(m) != 0:
            break
    else:  # vanishing determinants 100 times in a row: settle for a shift
        m = tuple(tuple(Fraction(int(r == c)) for c in range(3)) for r in range(3))
    shift = tuple(Fraction(_draw(rng, 2 * bound + 1) - bound) for _ in range(3))
    return affine(m, shift)


def _draw_elem_poly(
    rng: random.Random, slots: tuple[int, int], max_degree: int, bound: int
) -> Poly:
    """Random polynomial over the two variable slots, total degree ≥ 1."""
    p: Poly = {}
    for _ in range(1 + _draw(rng, 3)):
        t = 1 + _draw(rng, max_degree)
        a = _draw(rng, t + 1)
        e = [0, 0, 0]
        e[slots[0]] = a
        e[slots[1]] = t - a
        key = tuple(e)
        c = p.get(key, Fraction(0)) + _draw_coeff(rng, bound)
        if c:
            p[key] = c
        else:
            p.pop(key, None)
    return p


def _dominates(d: poly.MultiDegree, comps: tuple[Poly, ...]) -> bool:
    return all(poly.mdeg_gt(d, poly.deg(c)) for c in comps)


def _draw_strict_elem(
    rng: random.Random, comps: tuple[Poly, Poly, Poly], spec: GeneratorSpec
) -> tuple[Elementary, tuple[Poly, Poly, Poly]] | None:
    """Elementary factor whose correction strictly tops the composite.

    Returns the factor together with the composite with that factor applied
    outermost, or None when nothing fits under MAX_WORD_DEGREE.
    """
    total_max = max(sum(poly.deg(c)) for c in comps)
    allowed = min(spec.max_elem_degree, MAX_WORD_DEGREE // total_max)
    if allowed < 2:
        return None
    for _ in range(_ELEM_TRIES):
        i = _draw(rng, 3)
        j, k = (t for t in range(3) if t != i)
        p = _draw_elem_poly(rng, (j, k), allowed, spec.coeff_bound)
        if not p:
            continue
        correction = poly.substitute(p, comps)
        if not correction or not _dominates(poly.deg(correction), comps):
            continue
        new = list(comps)
        new[i] = poly.add(comps[i], correction)
        return elementary(i + 1, p), tuple(new)
    # Deterministic fallback: square the top component into the smallest
    # other one — always a strict top, always under the cap (allowed ≥ 2).
    degrees = [poly.deg(c) for c in comps]
    m = degrees.index(poly.mdeg_max(*degrees))
    i = min((t for t in range(3) if t != m), key=lambda t: poly.grlex_key(degrees[t]))
    e = [0, 0, 0]
    e[m] = 2
    factor = elementary(i + 1, {tuple(e): Fraction(1)})
    return factor, factor.after(comps)


def gen_tame(spec: GeneratorSpec) -> TameWord:
    """Deterministic pseudo-random tame word within the spec's caps."""
    if spec.length < 0:
        raise ValueError(f"length must be non-negative, got {spec.length}")
    if spec.max_elem_degree < 1 or spec.coeff_bound < 1:
        raise ValueError("max_elem_degree and coeff_bound must be positive")
    if spec.length == 0:
        return TameWord(())
    rng = random.Random(spec.seed)
    comps = identity_automorphism().components
    drawn = []  # innermost factor first; reversed into the word at the end
    use_affine = bool(_draw(rng, 2))
    for _ in range(spec.length):
        if use_affine:
            factor = _draw_affine(rng, spec.coeff_bound)
            comps = factor.after(comps)
        else:
            found = _draw_strict_elem(rng, comps, spec)
            if found is None:
                break
            factor, comps = found
        drawn.append(factor)
        use_affine = not use_affine
    return TameWord(tuple(reversed(drawn)))

"""Arithmetic modulo p = 2⁶¹ − 1 that the benchmark checks tame3 against.

Nothing here calls tame3: polynomials are read as plain dicts mapping an
exponent triple to a rational coefficient (tame3's own representation, which
is data), and every derivative, evaluation, degree and rank is computed by
the code below.  A polynomial identity that holds over ℚ holds modulo p at
every point, and a nonzero polynomial of degree d vanishes at a uniformly
random point with probability at most d/p (Schwartz–Zippel), so evaluating
at a few seeded points refutes a wrong output with overwhelming probability
and never refutes a right one.
"""

from __future__ import annotations

import random
from fractions import Fraction

P = (1 << 61) - 1

Exponent = tuple[int, int, int]
Poly = dict[Exponent, Fraction]


def residue(c) -> int:
    """A rational as an element of F_p (its denominator must be prime to p)."""
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, P) % P


def points(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """n seeded points of F_p³."""
    return [tuple(rng.randrange(1, P) for _ in range(3)) for _ in range(n)]


def evaluate(p: Poly, pt) -> int:
    """p(pt) in F_p."""
    powers = [{}, {}, {}]
    total = 0
    for e, coeff in p.items():
        term = residue(coeff)
        for v, k in enumerate(e):
            if k:
                cache = powers[v]
                if k not in cache:
                    cache[k] = pow(pt[v], k, P)
                term = term * cache[k] % P
        total += term
    return total % P


def partial(p: Poly, i: int) -> Poly:
    """∂p/∂x_i over ℚ, for i in 1, 2, 3."""
    out: Poly = {}
    for e, c in p.items():
        k = e[i - 1]
        if k:
            e2 = list(e)
            e2[i - 1] -= 1
            out[tuple(e2)] = Fraction(c) * k
    return out


def jacobian(components, pt) -> list[list[int]]:
    """The Jacobian matrix ∂f_r/∂x_s of a polynomial tuple at pt, mod p."""
    return [[evaluate(partial(f, s), pt) for s in (1, 2, 3)] for f in components]


def minors2(a: Poly, b: Poly, pt) -> tuple[int, int, int]:
    """The 2×2 minors of (a, b) at pt in the basis (dx1∧dx2, dx1∧dx3, dx2∧dx3)."""
    ja, jb = jacobian((a, b), pt)
    return tuple(
        (ja[i] * jb[j] - ja[j] * jb[i]) % P for i, j in ((0, 1), (0, 2), (1, 2))
    )


def det3(m) -> int:
    """Determinant of a 3×3 matrix over F_p."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % P


def jacobian_det(components, pt) -> int:
    """det ∂(f1, f2, f3)/∂(x1, x2, x3) at pt, mod p."""
    return det3(jacobian(components, pt))


def constant_nonzero_jacobian(components, pts) -> bool:
    """True when the Jacobian determinant is one nonzero value at every point."""
    values = {jacobian_det(components, pt) for pt in pts}
    return len(values) == 1 and 0 not in values


def apply_affine(matrix, shift, pt) -> tuple[int, int, int]:
    """x ↦ M·x + b at pt, mod p."""
    return tuple(
        (sum(residue(a) * x for a, x in zip(row, pt)) + residue(b)) % P
        for row, b in zip(matrix, shift)
    )


def apply_elementary(index: int, q: Poly, pt) -> tuple[int, int, int]:
    """x_index ↦ x_index + q(x) at pt, mod p; the other coordinates fixed."""
    out = list(pt)
    out[index - 1] = (out[index - 1] + evaluate(q, pt)) % P
    return tuple(out)


def apply_word(factors, pt) -> tuple[int, int, int]:
    """(w1 ∘ w2 ∘ ⋯ ∘ wn)(pt): the rightmost factor acts first.

    A factor is ("affine", matrix, shift) or ("elem", index, q).
    """
    for factor in reversed(factors):
        if factor[0] == "affine":
            pt = apply_affine(factor[1], factor[2], pt)
        else:
            pt = apply_elementary(factor[1], factor[2], pt)
    return pt


def grlex_key(e: Exponent) -> tuple:
    return (sum(e), e)


def degree(p: Poly) -> Exponent | None:
    """Graded-lex leading exponent of p's support; None for p = 0."""
    return max(p, key=grlex_key) if p else None


def rank(rows: list[list[int]]) -> int:
    """Rank over F_p of a matrix given by its rows."""
    m = [list(r) for r in rows]
    rk = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(m)) if m[i][c] % P), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        inv = pow(m[rk][c], -1, P)
        m[rk] = [x * inv % P for x in m[rk]]
        for i in range(len(m)):
            if i != rk and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % P for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk

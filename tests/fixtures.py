"""Shared hand-built fixtures: words, automorphisms, and their vertices.

The two golden words (cubic and quintic) compose an odd-power corrected
factor with triangular cleanup factors; their vertices admit exactly one
classified K-move whose pivotal form has s = 3 and s = 5 respectively.
The quadratic-kernel map (Nagata's) is the budget-free non-reducibility
fixture.  Everything is exact and deterministic.
"""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import strategies as st

from tame3 import poly
from tame3.poly import Poly
from tame3.vertices import TameWord, automorphism, elementary, eval_word, vertex3

X1: Poly = {(1, 0, 0): F(1)}
X2: Poly = {(0, 1, 0): F(1)}
X3: Poly = {(0, 0, 1): F(1)}


def P(*terms) -> Poly:
    """Poly from (coeff, e1, e2, e3) terms; summed, zeros dropped."""
    out: Poly = {}
    for c, a, b, d in terms:
        out[(a, b, d)] = out.get((a, b, d), F(0)) + F(c)
    return {e: c for e, c in out.items() if c}


# --- the cubic word: s = 3 -------------------------------------------------

G3 = elementary(3, P((1, 2, 0, 0), (-1, 0, 3, 0)))
E2 = elementary(2, P((1, 0, 0, 2)))
E1_3 = elementary(1, P((F(3, 2), 0, 1, 1), (1, 0, 0, 3)))
EA = elementary(2, P((1, 2, 0, 0)))
EB_3 = elementary(3, P((F(3, 4), 1, 1, 0), (F(3, 8), 3, 0, 0)))

CUBIC_WORD = TameWord((G3, E2, E1_3, EA, EB_3))
CUBIC_TARGET_WORD = TameWord((E2, E1_3, EA, EB_3))
CUBIC = eval_word(CUBIC_WORD)
CUBIC_TARGET = eval_word(CUBIC_TARGET_WORD)

# --- the quintic word: s = 5 -----------------------------------------------

G5 = elementary(3, P((1, 2, 0, 0), (-1, 0, 5, 0)))
E1_5 = elementary(1, P((F(15, 8), 0, 2, 1), (F(5, 2), 0, 1, 3), (1, 0, 0, 5)))
EB_5 = elementary(
    3, P((F(15, 16), 1, 2, 0), (F(15, 16), 3, 1, 0), (F(5, 16), 5, 0, 0))
)

QUINTIC_WORD = TameWord((G5, E2, E1_5, EA, EB_5))
QUINTIC_TARGET_WORD = TameWord((E2, E1_5, EA, EB_5))
QUINTIC = eval_word(QUINTIC_WORD)
QUINTIC_TARGET = eval_word(QUINTIC_TARGET_WORD)


# --- the quadratic-kernel map (no tame word known) -------------------------

def nagata():
    """The classic candidate non-tame map, built from w = x2² − x1·x3."""
    w = P((1, 0, 2, 0), (-1, 1, 0, 1))
    f1 = poly.add(
        poly.add(X1, poly.scale(F(2), poly.mul(X2, w))),
        poly.mul(X3, poly.mul(w, w)),
    )
    f2 = poly.add(X2, poly.mul(X3, w))
    return automorphism((f1, f2, X3))


NAGATA = nagata()
NAGATA_SOURCE = (
    "x1 + 2*x2*(x2^2 - x1*x3) + x3*(x2^2 - x1*x3)^2\n"
    "x2 + x3*(x2^2 - x1*x3)\n"
    "x3\n"
)


def cubic_vertices():
    return vertex3(CUBIC.components), vertex3(CUBIC_TARGET.components)


def quintic_vertices():
    return vertex3(QUINTIC.components), vertex3(QUINTIC_TARGET.components)


# --- source text for the parser's property tests ---------------------------

# The grammar's own pieces, plus a digit that int() refuses (²) and one it
# reads (٣), so that drawn texts reach the parser's edges often.
_SOURCE_PIECES = (
    "x1", "x2", "x3", "y", *"0123456789²٣+-*^()/;#", "\n", " ", "word:", "affine", "elem"
)
SOURCE_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_SOURCE_PIECES), max_size=40).map("".join),
)

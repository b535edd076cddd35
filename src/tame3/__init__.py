"""Exact reduction theory for tame polynomial automorphisms of affine 3-space.

Subpackage map:
  poly       — sparse exact polynomials, graded-lex multidegrees
  linalg     — echelon forms (good representatives, affine coordinates),
               exact Gauss–Jordan solves and nullspaces over ℚ
  forms      — differential forms, wedge products, form degrees, the
               degree and vanishing of df1∧…∧dfr
  analysis   — virtual degrees, multiplicity, Parachute Inequality,
               Principle of Two Maxima, degree resonance
  vertices   — the simplicial complex: vertices, lines, points,
               stratified degrees, pivotal-form checks
  reduction  — elementary/K-reduction search, reduction paths,
               non-tameness certificates
  parsing    — expression and automorphism-file parsing, printing
  wordgen    — seeded random tame-word generator
  cli        — the ``tame3`` command-line tool
  errors     — the exception hierarchy (``Tame3Error`` and its subclasses)
"""

__version__ = "0.1.0"

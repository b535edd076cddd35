"""Exception hierarchy shared across the package.

Every error a caller can meaningfully catch derives from :class:`Tame3Error`.
Parse-time errors carry source positions; search-time errors distinguish an
inconclusive budget miss (:class:`BudgetExceeded`) from structural evidence of
irreducibility (which is *not* an exception — see ``reduction.NonReducibleReport``).
"""

from __future__ import annotations


class Tame3Error(Exception):
    """Base class for all package-specific errors."""


class ZeroPolynomial(Tame3Error):
    """An operation requiring a nonzero polynomial received zero."""


class EmptyInput(Tame3Error):
    """An operation requiring a nonzero y- or (y,z)-polynomial received zero."""


class DegreeOverflow(Tame3Error):
    """A total degree exceeded the package-wide safety cap."""


class DependentInputs(Tame3Error):
    """Polynomials required to be algebraically independent are not."""


class NotAnAutomorphism(Tame3Error):
    """Independent components whose Jacobian df1∧df2∧df3 is not a constant."""


class DegenerateTuple(Tame3Error):
    """A tuple of would-be components is linearly dependent with constants."""


class NotIncident(Tame3Error):
    """A point/line/vertex incidence required by the operation does not hold."""


class NotNeighbors(Tame3Error):
    """Two vertices required to be neighbors in the complex are not."""


class AffineP(Tame3Error):
    """A correcting polynomial must be non-affine but is affine."""


class SingularAffine(Tame3Error):
    """An affine factor's matrix is not invertible."""


class WitnessMismatch(Tame3Error):
    """A declared generating word does not evaluate to the stated components."""


class HypothesesUnmet(Tame3Error):
    """A constructive rewrite was invoked outside its hypotheses.

    The message names the first failing hypothesis.
    """


class IdentityVertex(Tame3Error):
    """The identity vertex admits no reduction step."""


class TheoremViolated(Tame3Error):
    """A degree inequality the theory proves for automorphisms failed.

    Unreachable on valid automorphisms; raised instead of returning a report
    that contradicts the theorem.
    """


class BudgetExceeded(Tame3Error):
    """The bounded search gave up; the result is inconclusive, not negative."""


class ParseError(Tame3Error):
    """Syntax error in an expression or automorphism file.

    Attributes:
        line: 1-based source line of the offending token.
        column: 1-based source column.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownVariable(ParseError):
    """An identifier other than x1, x2, x3 (or y/z where permitted) was used."""

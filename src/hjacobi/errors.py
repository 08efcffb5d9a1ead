"""Exception hierarchy.

StructuralError and its subclasses signal numerical-structural trouble
(indefinite pivots, singular inputs, rank deficiency): conditions where the
math contract can no longer hold and the caller must either fall back or
abort.  Plain ValueError is used for ordinary argument validation.
"""


class HJacobiError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(HJacobiError):
    """A numerical-structural failure (CLI exit code 4)."""


class PivotDefinitenessError(StructuralError):
    """A 2x2 Gram pivot was not positive definite."""

    def __init__(self, r, s, message=None):
        self.r = r
        self.s = s
        super().__init__(message or f"pivot ({r}, {s}) is not positive definite")


class DefinitenessError(StructuralError):
    """A Cholesky factorization met a non-positive-definite matrix."""


class SingularMatrixError(StructuralError):
    """The input matrix is numerically singular; supply a factor directly."""


class RankDeficiencyError(StructuralError):
    """A supplied factor does not have full column rank."""


class NonConvergenceError(HJacobiError):
    """The iteration hit the sweep limit (CLI exit code 5)."""

"""Exception hierarchy.

Two families matter to callers (and to the CLI exit codes):

* ``ValueError`` subclasses signal bad inputs or violated preconditions
  (wrong dimensions, non-homogeneous form where homogeneity is required,
  asking for Morse indices of a non-Morse matrix).
* plain ``FolContactError`` subclasses signal numerical failure on valid
  input (singular matrices, Newton divergence, flow stalls).
"""

from __future__ import annotations


class FolContactError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(FolContactError, ValueError):
    """Operands have incompatible dimensions."""


class NonHomogeneousFormError(FolContactError, ValueError):
    """Operation requires a homogeneous one-form."""


class NotMorseError(FolContactError, ValueError):
    """Operation requires a Morse-type coefficient matrix."""


class SingularMatrixError(FolContactError):
    """Matrix is singular (or too ill-conditioned) for the requested analysis."""


class SingularGradientError(FolContactError):
    """The gradient of the one-form vanishes (within tolerance) at the point."""


class RadiusRangeError(FolContactError):
    """The sphere radius squares outside the normal double-precision range."""


class ConvergenceError(FolContactError):
    """An iterative routine failed to converge within its iteration cap."""


class ChartError(FolContactError):
    """Every coefficient of the one-form vanishes where a leaf chart is made."""


class FlowError(ConvergenceError):
    """Leaf flow failed; carries the last iterate for diagnostics."""

    def __init__(self, reason: str, last_point=None, steps: int = 0):
        super().__init__(reason)
        self.reason = reason
        self.last_point = last_point
        self.steps = steps


class LeafCorrectionError(FlowError):
    """Newton back-projection onto the leaf diverged."""

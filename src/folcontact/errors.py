"""Exception hierarchy.

Two families matter to callers (and to the CLI exit codes):

* ``ValueError`` subclasses signal bad inputs or violated preconditions
  (wrong dimensions).
* plain ``FolContactError`` subclasses signal numerical failure on valid
  input (singular matrices, Newton divergence, flow stalls).
"""

from __future__ import annotations


class FolContactError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(FolContactError, ValueError):
    """Operands have incompatible dimensions."""


class SingularMatrixError(FolContactError):
    """Matrix is singular (or too ill-conditioned) for the requested analysis."""


class SingularGradientError(FolContactError):
    """The gradient of the one-form vanishes (within tolerance) at the point."""


class RadiusRangeError(FolContactError):
    """A result leaves the normal double-precision range at this radius.

    Raised where the sphere radius squares outside it, where a homogeneous
    form's multiplier, scaled by r^(1-k) to the radius, falls outside it,
    and where |z|^2, f or its rounding scale overflows at a point.
    """


class ConvergenceError(FolContactError):
    """An iterative routine failed to converge within its iteration cap."""


class FlowError(ConvergenceError):
    """Leaf flow failed; carries the last iterate for diagnostics."""

    def __init__(self, reason: str, last_point=None, steps: int = 0):
        super().__init__(reason)
        self.last_point = last_point
        self.steps = steps


class LeafCorrectionError(FlowError):
    """Newton back-projection onto the leaf diverged."""

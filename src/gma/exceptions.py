"""Exception taxonomy shared across the package.

Plain ValueError is used for malformed inputs (wrong shapes, non-finite
data, out-of-range parameters).  The classes below mark *computational*
failure modes that callers may want to catch and report separately.
"""


class GmaError(Exception):
    """Base class for computational failures."""


class ConeBreachError(GmaError):
    """An iterate left the admissible cone (or lost positivity) and no
    damping level restored it."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class MaxIterationsError(GmaError):
    """Newton iteration hit its iteration cap before reaching tolerance."""


class LinearSolveStallError(GmaError):
    """The inner Krylov solve did not reach its tolerance."""


class StepUnderflowError(GmaError):
    """Continuity-path step size fell below the abort threshold."""


class CompatibilityError(GmaError):
    """Discrete integral compatibility violated beyond tolerance."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class FanMismatchError(GmaError):
    """Two polytopes do not share a normal fan (or a facet degenerated)."""

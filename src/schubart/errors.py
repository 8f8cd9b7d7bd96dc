"""Exception types shared across the package."""


class SchubartError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SchubartError, ValueError):
    """A parameter lies outside the valid domain of an operation."""


class StructureError(SchubartError):
    """The shape potential does not have the expected critical-point layout
    (exactly one or exactly three interior critical points)."""


class LinearizationError(SchubartError):
    """The numerical Jacobian at an equilibrium is unusable (defective or
    non-finite) at the requested tolerance."""


class OrientationError(SchubartError):
    """An eigenvector's w-component is too small to orient a manifold
    branch by its sign."""


class ManifoldDepartureError(SchubartError):
    """A g-comparison integration produced a square-root argument well below
    zero: the curve left the collision-manifold chart."""


class BoundTooWeakError(SchubartError):
    """The certificate integrand turns negative: the supplied endpoint bound
    has too large a magnitude for the certificate to apply."""


class DivergenceError(SchubartError):
    """A divergent value was requested (complete integral K at m = 1)."""


class TotalCollisionError(SchubartError):
    """Configuration velocities do not exist at total collision (r = 0)."""


class EvaluationError(SchubartError):
    """A vector-field evaluation produced NaN or infinity."""


class OrbitNotFoundError(SchubartError):
    """No seed-parameter bracket matched the requested family signature.

    Carries the scan table (list of (parameter, signature summary, terminal
    residual) rows) for diagnosis.
    """

    def __init__(self, message: str, scan=None):
        super().__init__(message)
        self.scan = scan if scan is not None else []


class AmbiguousBracketError(OrbitNotFoundError):
    """A root bracket gave no orbit even after one local re-scan of it: the
    crossing signature changed inside it, or no shot in it came within the
    residual tolerance.  Carries the scan table, as OrbitNotFoundError
    does."""

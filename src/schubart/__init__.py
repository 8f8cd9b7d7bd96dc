"""Collision-manifold dynamics and symmetric periodic orbits for three
highly symmetric N-body sub-problems (pyramidal, spatial and planar
double-polygon).

The package exposes one module per concern: problem definitions and shape
potentials (problems), the regularizing chart and its vector field
(dynamics), an adaptive integrator with event location (odeint), invariant
manifold branch tracing on the collision manifold (manifolds), the
comparison-ODE existence conditions and elliptic integrals (conditions),
and shooting searches for the symmetric periodic families, refined by
Brent's method (orbits).  The cli module wires them into subcommands.
"""

__version__ = "0.1.0"

from .dynamics import State
from .errors import (
    AmbiguousBracketError,
    BoundTooWeakError,
    DivergenceError,
    DomainError,
    ManifoldDepartureError,
    OrbitNotFoundError,
    SchubartError,
)
from .orbits import FamilySpec, PeriodicOrbit, find_orbit
from .problems import ProblemSpec, planar, pyramidal, spatial

__all__ = [
    "__version__",
    "AmbiguousBracketError",
    "BoundTooWeakError",
    "DivergenceError",
    "DomainError",
    "FamilySpec",
    "ManifoldDepartureError",
    "OrbitNotFoundError",
    "PeriodicOrbit",
    "ProblemSpec",
    "SchubartError",
    "State",
    "planar",
    "pyramidal",
    "spatial",
    "find_orbit",
]

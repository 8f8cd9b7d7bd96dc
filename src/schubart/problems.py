"""Shape potentials for three two-degree-of-freedom N-body sub-problems.

Each sub-problem reduces, after symmetry quotienting and size/shape
splitting, to motion in a shape angle phi with a potential pair

    V(phi)   singular shape potential,
    W(phi) = f(phi) V(phi)   regularized product, finite and positive,

where f vanishes simple-zero at the ends of the shape domain (phi_a, phi_b).
The three problems:

  pyramidal            n equal masses in a regular polygon plus an apex mass
                       mu on the symmetry axis; domain (-pi/2, pi/2).
  spatial-double-polygon   two parallel regular n-gons of equal masses;
                       domain (-pi/2, pi/2).
  planar-double-polygon    two concentric coplanar regular n-gons, rotated
                       by half a vertex angle; domain (0, pi/2).
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, StructureError

PYRAMIDAL = "pyramidal"
SPATIAL = "spatial-double-polygon"
PLANAR = "planar-double-polygon"

HALF_CIRCLE = "half-circle"
QUARTER_CIRCLE = "quarter-circle"

_KIND_ALIASES = {
    "pyramidal": PYRAMIDAL,
    "spatial": SPATIAL,
    "spatial-double-polygon": SPATIAL,
    "planar": PLANAR,
    "planar-double-polygon": PLANAR,
}


def csc_sum(n: int) -> float:
    """S_n = sum_{k=1}^{n-1} csc(pi k / n), the polygon interaction sum."""
    if n < 2 or int(n) != n:
        raise DomainError("csc_sum requires an integer n >= 2, got %r" % (n,))
    n = int(n)
    return float(sum(1.0 / math.sin(math.pi * k / n) for k in range(1, n)))


def csc_sum_asymptotic(n: int) -> float:
    """Asymptotic value of S_n / 4 for large n.

    (n/2pi)(gamma + log(2n/pi)) - pi/(144 n) + 7 pi^3/(86400 n^3)
                                - 31 pi^5/(7620480 n^5)
    with gamma the Euler-Mascheroni constant.  Relative error below 1e-6
    already for n around 47.
    """
    if n < 2:
        raise DomainError("csc_sum_asymptotic requires n >= 2, got %r" % (n,))
    n = float(n)
    pi = math.pi
    return (
        (n / (2.0 * pi)) * (np.euler_gamma + math.log(2.0 * n / pi))
        - pi / (144.0 * n)
        + 7.0 * pi**3 / (86400.0 * n**3)
        - 31.0 * pi**5 / (7620480.0 * n**5)
    )


@dataclass
class ProblemSpec:
    """One sub-problem with its derived constants.

    Treat instances as immutable; the derived fields are filled in
    __post_init__ and the critical points on first use.  mu is only
    meaningful for the pyramidal problem.
    """

    kind: str
    n: int
    mu: float = 1.0
    phi_a: float = field(init=False)
    phi_b: float = field(init=False)
    chart: str = field(init=False)
    s_n: float = field(init=False)

    def __post_init__(self):
        self.kind = _KIND_ALIASES.get(self.kind, self.kind)
        if self.kind not in (PYRAMIDAL, SPATIAL, PLANAR):
            raise DomainError("unknown problem kind %r" % (self.kind,))
        if int(self.n) != self.n:
            raise DomainError("n must be an integer")
        self.n = int(self.n)
        min_n = 3 if self.kind == PLANAR else 2
        if self.n < min_n:
            raise DomainError(
                "%s requires n >= %d, got %d" % (self.kind, min_n, self.n)
            )
        if self.kind == PYRAMIDAL and not self.mu > 0.0:
            raise DomainError("pyramidal apex mass mu must be positive")
        self.s_n = csc_sum(self.n)
        if self.kind == PLANAR:
            self.phi_a, self.phi_b = 0.0, math.pi / 2.0
            self.chart = QUARTER_CIRCLE
            # ring-ring interaction angles pi(2k-1)/n, k = 1..n
            self._cl = np.cos(np.pi * (2.0 * np.arange(1, self.n + 1) - 1.0) / self.n)
        else:
            self.phi_a, self.phi_b = -math.pi / 2.0, math.pi / 2.0
            self.chart = HALF_CIRCLE
            if self.kind == SPATIAL:
                # polygon-polygon interaction angles pi(2k-1)/(2n), k = 1..n
                self._ck = np.cos(
                    np.pi * (2.0 * np.arange(1, self.n + 1) - 1.0) / (2.0 * self.n)
                )

    @cached_property
    def critical(self) -> "CriticalPointSet":
        """The critical points of V on the default grid, searched once."""
        return critical_points(self)

    # midpoint of the shape domain (the Euler shape)
    @property
    def phi_m(self) -> float:
        return 0.0 if self.chart == HALF_CIRCLE else math.pi / 4.0

    def __repr__(self):
        if self.kind == PYRAMIDAL:
            return "ProblemSpec(%s, n=%d, mu=%g)" % (self.kind, self.n, self.mu)
        return "ProblemSpec(%s, n=%d)" % (self.kind, self.n)


def pyramidal(n: int, mu: float = 1.0) -> ProblemSpec:
    return ProblemSpec(PYRAMIDAL, n, mu)


def spatial(n: int) -> ProblemSpec:
    return ProblemSpec(SPATIAL, n)


def planar(n: int) -> ProblemSpec:
    return ProblemSpec(PLANAR, n)


# -- potential evaluation ----------------------------------------------------
#
# Every evaluator accepts scalar or ndarray phi and returns the same shape.
# The _quantities functions give the regularized W and W'; V and V' follow
# from W = f V in potential.


def _pyramidal_quantities(p: ProblemSpec, phi):
    s, c = np.sin(phi), np.cos(phi)
    d = 1.0 + (p.n / p.mu) * s * s
    dm12 = 1.0 / np.sqrt(d)
    w = p.s_n / 4.0 + p.mu * c * dm12
    wp = -(p.n + p.mu) * s * dm12 / d
    return w, wp


def _spatial_quantities(p: ProblemSpec, phi):
    phi = np.asarray(phi, dtype=float)
    s, c = np.sin(phi), np.cos(phi)
    s4 = p.s_n / 4.0
    ck = p._ck.reshape((-1,) + (1,) * phi.ndim)
    inv = 1.0 / np.sqrt(1.0 - (ck * c) ** 2)
    w = s4 + 0.25 * c * np.sum(inv, axis=0)
    wp = -0.25 * s * np.sum(inv**3, axis=0)
    return w, wp


def _planar_quantities(p: ProblemSpec, phi):
    phi = np.asarray(phi, dtype=float)
    s, c = np.sin(phi), np.cos(phi)
    s4 = p.s_n / 4.0
    cl = p._cl.reshape((-1,) + (1,) * phi.ndim)
    d = 1.0 / np.sqrt(1.0 - 2.0 * s * c * cl)
    t = np.sum(d, axis=0)
    u = np.sum(cl * d**3, axis=0)
    w = s4 * (s + c) + s * c * t
    wp = s4 * (c - s) + np.cos(2.0 * phi) * (t + s * c * u)
    return w, wp


def _quantities(p: ProblemSpec, phi):
    if p.kind == PYRAMIDAL:
        return _pyramidal_quantities(p, phi)
    if p.kind == SPATIAL:
        return _spatial_quantities(p, phi)
    return _planar_quantities(p, phi)


def shape_f(p: ProblemSpec, phi):
    """f(phi): the simple-zero factor that regularizes V at the domain ends."""
    if p.chart == HALF_CIRCLE:
        return np.cos(phi)
    return np.sin(phi) * np.cos(phi)


def shape_fprime(p: ProblemSpec, phi):
    if p.chart == HALF_CIRCLE:
        return -np.sin(phi)
    return np.cos(2.0 * phi)


_QUANTITY_ALIASES = {
    "V": "V", "V'": "V'", "Vp": "V'", "V′": "V'",
    "W": "W", "W'": "W'", "Wp": "W'", "W′": "W'",
    "f": "f", "F": "F",
}


def potential(p: ProblemSpec, phi, quantity: str):
    """Evaluate one of V, V', f, W, W', F = f/sqrt(W) at shape angle phi."""
    q = _QUANTITY_ALIASES.get(quantity)
    if q is None:
        raise DomainError("unknown potential quantity %r" % (quantity,))
    if q == "f":
        out = shape_f(p, phi)
    else:
        w, wp = _quantities(p, phi)
        if q == "W":
            out = w
        elif q == "W'":
            out = wp
        elif q == "F":
            out = shape_f(p, phi) / np.sqrt(w)
        else:
            # V = W / f and V' = (W' - f' V) / f blow up at the arms, where
            # f vanishes; W stays finite there
            f = shape_f(p, phi)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = w / f
                if q == "V'":
                    out = (wp - shape_fprime(p, phi) * out) / f
    if np.ndim(phi) == 0:
        return float(out)
    return out


@dataclass
class CriticalPointSet:
    """Interior critical points of V, sorted by phi.

    points holds (phi, sign of V'' there); count is 1 or 3.  When count is
    3 the layout is phi_L < phi_m < phi_R, symmetric about the midpoint.
    """

    points: list
    count: int

    @property
    def phi_m(self) -> float:
        return self.points[0][0] if self.count == 1 else self.points[1][0]

    @property
    def phi_L(self):
        return self.points[0][0] if self.count == 3 else None

    @property
    def phi_R(self):
        return self.points[2][0] if self.count == 3 else None


def critical_points(p: ProblemSpec, grid: int = 10000) -> CriticalPointSet:
    """Locate the critical points of V on the open shape domain.

    Sign changes of V' on a uniform grid are refined by root bracketing to
    1e-12 in phi.  Anything other than exactly one or exactly three roots
    raises StructureError.
    """
    margin = 1e-8
    phis = np.linspace(p.phi_a + margin, p.phi_b - margin, grid)
    vp = potential(p, phis, "V'")
    roots = []
    sign = np.sign(vp)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        root = brentq(
            lambda x: potential(p, x, "V'"),
            phis[i],
            phis[i + 1],
            xtol=1e-13,
            rtol=4.0 * np.finfo(float).eps,
        )
        roots.append(root)
    # grid nodes that are exact zeros (measure zero but cheap to honor)
    for i in np.nonzero(sign == 0)[0]:
        roots.append(float(phis[i]))
    roots = sorted(roots)
    deduped = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)
    if len(deduped) not in (1, 3):
        raise StructureError(
            "expected 1 or 3 critical points for %r, found %d"
            % (p, len(deduped))
        )
    h = 1e-5
    pts = []
    for r in deduped:
        curv = potential(p, r + h, "V'") - potential(p, r - h, "V'")
        pts.append((r, 1 if curv > 0 else -1))
    return CriticalPointSet(points=pts, count=len(pts))


def phi_R_closed_form(n: int, mu: float = 1.0) -> float:
    """Right off-axis critical point of the pyramidal potential, closed form.

    tan^2(phi_R) = mu/(n+mu) ((4n/S_n)^(2/3) - 1).  Exists only while
    S_n < 4n; past that the off-axis pair has merged into the axis point
    and a DomainError is raised.
    """
    if n < 2:
        raise DomainError("pyramidal problem needs n >= 2")
    if not mu > 0.0:
        raise DomainError("mu must be positive")
    sn = csc_sum(n)
    radicand = (4.0 * n / sn) ** (2.0 / 3.0) - 1.0
    if radicand <= 0.0:
        raise DomainError(
            "no off-axis critical points: S_n >= 4n at n=%d" % (n,)
        )
    return math.atan(math.sqrt(mu / (n + mu) * radicand))

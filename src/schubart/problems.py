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
        if self.kind == PYRAMIDAL and not 0.0 < self.mu < math.inf:
            raise DomainError("pyramidal apex mass mu must be positive and"
                              " finite, got %r" % (self.mu,))
        self.s_n = csc_sum(self.n)
        if self.kind == PLANAR:
            self.phi_a, self.phi_b = 0.0, math.pi / 2.0
            self.chart = QUARTER_CIRCLE
        else:
            self.phi_a, self.phi_b = -math.pi / 2.0, math.pi / 2.0
            self.chart = HALF_CIRCLE
        if self.kind != PYRAMIDAL:
            # cosines of the ring-ring interaction angles, k = 1..n:
            # pi(2k-1)/(2n) for the spatial problem, pi(2k-1)/n for the planar
            per = self.n if self.kind == PLANAR else 2.0 * self.n
            self._ring_cos = np.cos(
                np.pi * (2.0 * np.arange(1, self.n + 1) - 1.0) / per
            )
            self._ring_cos_list = self._ring_cos.tolist()

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
# Every formula takes the shape point (c, s) = (cos phi, sin phi), scalar
# or ndarray, and returns the same shape: the charts give that pair without
# phi, and potential takes the cos and sin of its own phi once.  The
# _quantities functions give the regularized W and W'; V and V' follow
# from W = f V in potential.  A finite Python float pair is evaluated on
# Python floats with math's sqrt, which gives the bits of numpy's float64
# loop at a fraction of numpy's per-call cost.  The sums over the n
# ring-ring interaction terms run left to right, in a += loop on floats and
# row after row over an (n, ...) array (never numpy's pairwise sum), and
# cubes are products (numpy's array power rounds differently from
# x * x * x), so a flat evaluation gives the bits of every block column.


def _xp(x):
    """The namespace that evaluates at x: math for a finite float, numpy
    for anything else (an array, or an inf or nan, which math rejects)."""
    return math if isinstance(x, float) and math.isfinite(x) else np


# below this many columns _rows takes one accumulate call, above it one
# add per row: an accumulate costs about 0.6 us plus 0.02 us per entry, the
# row loop about 0.3 us per row, so the row loop wins from 96 columns at
# 9-10 rows and from 48 at 3 (2-vCPU Xeon, Python 3.11, numpy 2.4)
_ACCUMULATE_BELOW = 64


def _rows(a):
    """Sum of a over its leading axis, row after row from the first (as
    np.add.accumulate adds, so both forms give the same bits)."""
    if a[0].size < _ACCUMULATE_BELOW:
        return np.add.accumulate(a, axis=0)[-1]
    total = a[0] + a[1]
    for row in a[2:]:
        total += row
    return total


def _ring_sums(p: ProblemSpec, x, terms, xp):
    """(sum_k d_k, sum_k e_k) with (d_k, e_k) = terms(a_k, x, sqrt) over the
    ring-ring interaction cosines a_k, summed left to right; Python floats
    when xp is math."""
    if xp is math:
        t = u = 0.0
        for a in p._ring_cos_list:
            d, e = terms(a, x, math.sqrt)
            t += d
            u += e
        return t, u
    d, e = terms(p._ring_cos.reshape((-1,) + (1,) * np.ndim(x)), x, np.sqrt)
    return _rows(d), _rows(e)


def _pyramidal_quantities(p: ProblemSpec, c, s):
    d = 1.0 + (p.n / p.mu) * s * s
    dm12 = 1.0 / _xp(c).sqrt(d)
    w = p.s_n / 4.0 + p.mu * c * dm12
    wp = -(p.n + p.mu) * s * dm12 / d
    return w, wp


def _spatial_terms(a, c, sqrt):
    # the ring-ring terms of the spatial sums at cos(phi) = c
    d = 1.0 / sqrt(1.0 - (a * c) * (a * c))
    return d, d * d * d


def _spatial_quantities(p: ProblemSpec, c, s):
    t, u = _ring_sums(p, c, _spatial_terms, _xp(c))
    w = p.s_n / 4.0 + 0.25 * c * t
    wp = -0.25 * s * u
    return w, wp


def _planar_terms(a, sc2, sqrt):
    # the ring-ring terms of the planar sums at 2 sin(phi) cos(phi) = sc2
    d = 1.0 / sqrt(1.0 - sc2 * a)
    return d, a * (d * d * d)


def _planar_quantities(p: ProblemSpec, c, s):
    s4 = p.s_n / 4.0
    t, u = _ring_sums(p, 2.0 * s * c, _planar_terms, _xp(c))
    w = s4 * (s + c) + s * c * t
    # cos 2phi = (c - s)(c + s)
    wp = s4 * (c - s) + (c - s) * (c + s) * (t + s * c * u)
    return w, wp


def _quantities(p: ProblemSpec, c, s):
    """(W, W') at the shape point (c, s) = (cos phi, sin phi)."""
    if p.kind == PYRAMIDAL:
        return _pyramidal_quantities(p, c, s)
    if p.kind == SPATIAL:
        return _spatial_quantities(p, c, s)
    return _planar_quantities(p, c, s)


def shape_f(p: ProblemSpec, c, s):
    """(f, df/dphi) at the shape point (c, s) = (cos phi, sin phi): f is
    the simple-zero factor that regularizes V at the domain ends, cos phi
    on the half circle and sin phi cos phi on the quarter circle."""
    if p.chart == HALF_CIRCLE:
        return c, -s
    return s * c, (c - s) * (c + s)


_QUANTITIES = ("V", "V'", "W", "W'", "f", "F")


def potential(p: ProblemSpec, phi, quantity: str):
    """Evaluate one of V, V', f, W, W', F = f/sqrt(W) at shape angle phi."""
    if quantity not in _QUANTITIES:
        raise DomainError("unknown potential quantity %r" % (quantity,))
    # numpy's cos and sin even for a scalar phi: V = W / f and
    # V' = (W' - f' V) / f then divide by a numpy zero where f vanishes at
    # an arm, and blow up to +-inf there; W stays finite
    c, s = np.cos(phi), np.sin(phi)
    if quantity == "f":
        out = shape_f(p, c, s)[0]
    else:
        w, wp = _quantities(p, c, s)
        if quantity == "W":
            out = w
        elif quantity == "W'":
            out = wp
        else:
            f, fp = shape_f(p, c, s)
            if quantity == "F":
                out = f / np.sqrt(w)
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    out = w / f
                    if quantity == "V'":
                        out = (wp - fp * out) / f
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

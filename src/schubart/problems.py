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
import numbers

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


def _is_integer(n) -> bool:
    """Whether n is a finite number with an integer value (an int, or a
    float such as 3.0)."""
    return isinstance(n, numbers.Real) and math.isfinite(n) and int(n) == n


def csc_sum(n: int) -> float:
    """S_n = sum_{k=1}^{n-1} csc(pi k / n), the polygon interaction sum."""
    if not (_is_integer(n) and n >= 2):
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
    meaningful for the pyramidal problem.  quantities(c, s, xp), shape_f(c, s)
    and chart_terms(theta) are its bound (W, W'), (f, f') and chart terms;
    mass_scale is the second configuration coordinate per unit r sin phi.
    """

    kind: str
    n: int
    mu: float = 1.0
    phi_a: float = field(init=False)
    phi_b: float = field(init=False)
    chart: str = field(init=False)
    s_n: float = field(init=False)
    mass_scale: float = field(init=False)
    quantities: object = field(init=False, repr=False, compare=False)
    shape_f: object = field(init=False, repr=False, compare=False)
    chart_terms: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.kind = _KIND_ALIASES.get(self.kind, self.kind)
        if self.kind not in (PYRAMIDAL, SPATIAL, PLANAR):
            raise DomainError("unknown problem kind %r" % (self.kind,))
        if not _is_integer(self.n):
            raise DomainError("n must be an integer, got %r" % (self.n,))
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
        s4 = self.s_n / 4.0
        if self.kind == PLANAR:
            self.phi_a, self.phi_b = 0.0, math.pi / 2.0
            self.chart, chart = QUARTER_CIRCLE, _quarter_circle
        else:
            self.phi_a, self.phi_b = -math.pi / 2.0, math.pi / 2.0
            self.chart, chart = HALF_CIRCLE, _half_circle
        if self.kind == PYRAMIDAL:
            self.quantities = _pyramidal_quantities(s4, self.n, self.mu)
            self.mass_scale = math.sqrt((self.n + self.mu) / self.mu)
        elif self.kind == SPATIAL:
            self.quantities = _spatial_quantities(
                s4, _ring_cos(self.n, 2.0 * self.n))
            self.mass_scale = 2.0
        else:
            self.quantities = _planar_quantities(s4, _ring_cos(self.n, self.n))
            self.mass_scale = 1.0
        self.shape_f, self.chart_terms = chart(self.quantities)

    @cached_property
    def critical(self) -> "CriticalPointSet":
        """The critical points of V on the default grid, searched once."""
        return critical_points(self)

    @cached_property
    def landmarks(self) -> dict:
        """The landmarks v0..v5 at the default trace epsilons, traced once
        (manifolds.trace_landmarks)."""
        from .manifolds import trace_landmarks  # manifolds imports this
        return trace_landmarks(self)

    def __reduce__(self):
        # the bound closures cannot be pickled: rebuild them
        return ProblemSpec, (self.kind, self.n, self.mu)

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
# phi, and potential takes the cos and sin of its own phi once.  Each
# problem's quantities give the regularized W and W'; V and V' follow
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


def _ring_cos(n: int, per):
    """The cosines of the ring-ring interaction angles pi (2k - 1) / per,
    k = 1..n (per is 2n on the spatial problem, n on the planar), as a
    list of Python floats and as an array."""
    a = np.cos(np.pi * (2.0 * np.arange(1, n + 1) - 1.0) / per)
    return a.tolist(), a


def _ring_sums(ring, x, terms, xp):
    """(sum_k d_k, sum_k e_k) with (d_k, e_k) = terms(a_k, x, sqrt) over the
    ring-ring interaction cosines a_k of _ring_cos, summed left to right;
    Python floats when xp is math."""
    if xp is math:
        t = u = 0.0
        for a in ring[0]:
            d, e = terms(a, x, math.sqrt)
            t += d
            u += e
        return t, u
    d, e = terms(ring[1].reshape((-1,) + (1,) * np.ndim(x)), x, np.sqrt)
    return _rows(d), _rows(e)


def _pyramidal_quantities(s4, n, mu):
    k, m = n / mu, -(n + mu)

    def quantities(c, s, xp):
        d = 1.0 + k * s * s
        dm12 = 1.0 / xp.sqrt(d)
        return s4 + mu * c * dm12, m * s * dm12 / d

    return quantities


def _spatial_terms(a, c, sqrt):
    # the ring-ring terms of the spatial sums at cos(phi) = c
    d = 1.0 / sqrt(1.0 - (a * c) * (a * c))
    return d, d * d * d


def _spatial_quantities(s4, ring):
    def quantities(c, s, xp):
        t, u = _ring_sums(ring, c, _spatial_terms, xp)
        return s4 + 0.25 * c * t, -0.25 * s * u

    return quantities


def _planar_terms(a, sc2, sqrt):
    # the ring-ring terms of the planar sums at 2 sin(phi) cos(phi) = sc2
    d = 1.0 / sqrt(1.0 - sc2 * a)
    return d, a * (d * d * d)


def _planar_quantities(s4, ring):
    def quantities(c, s, xp):
        t, u = _ring_sums(ring, 2.0 * s * c, _planar_terms, xp)
        # cos 2phi = (c - s)(c + s)
        return (s4 * (s + c) + s * c * t,
                s4 * (c - s) + (c - s) * (c + s) * (t + s * c * u))

    return quantities


# -- charts ------------------------------------------------------------------
#
# Each chart is one builder: it binds a problem's (W, W') and returns its
# shape_f(c, s), the (f, df/dphi) whose simple zeros regularize V at the
# domain ends, and chart_terms(theta): sin theta, cos theta, c, c', curly W,
# curly W' and the shape point (cos phi, sin phi), algebraic in sin theta and
# cos theta, with c1'^2 + c2'^2 = cos^2 theta / c.


def _half_circle(quantities):
    # the stereographic chart, f = cos phi: (cos phi, sin phi) =
    # (1 - sin^2, 2 sin) / q with q = 1 + sin^2 theta, c = q^2 / 4 and
    # curly W = q W
    def terms(theta):
        xp = _xp(theta)
        si, co = xp.sin(theta), xp.cos(theta)
        q = 1.0 + si * si
        c1, c2 = (1.0 - si * si) / q, 2.0 * si / q
        w, wp = quantities(c1, c2, xp)
        return (si, co, 0.25 * q * q, q * si * co, q * w,
                2.0 * co * (si * w + wp), c1, c2)

    return (lambda c, s: (c, -s)), terms


def _quarter_circle(quantities):
    # the parallel projection, f = sin phi cos phi: (cos phi, sin phi) =
    # (a - sin, a + sin) / 2 with a = sqrt(c), c = 1 + cos^2 theta and
    # curly W = 2 W
    def terms(theta):
        xp = _xp(theta)
        si, co = xp.sin(theta), xp.cos(theta)
        c = 1.0 + co * co
        a = xp.sqrt(c)
        c1, c2 = 0.5 * (a - si), 0.5 * (a + si)
        w, wp = quantities(c1, c2, xp)
        return si, co, c, -2.0 * si * co, 2.0 * w, 2.0 * co * wp / a, c1, c2

    return (lambda c, s: (s * c, (c - s) * (c + s))), terms


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
        out = p.shape_f(c, s)[0]
    else:
        w, wp = p.quantities(c, s, _xp(c))
        if quantity == "W":
            out = w
        elif quantity == "W'":
            out = wp
        else:
            f, fp = p.shape_f(c, s)
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
    if not (_is_integer(n) and n >= 2):
        raise DomainError("pyramidal problem needs an integer n >= 2, got %r"
                          % (n,))
    if not 0.0 < mu < math.inf:
        raise DomainError("mu must be positive and finite, got %r" % (mu,))
    sn = csc_sum(n)
    radicand = (4.0 * n / sn) ** (2.0 / 3.0) - 1.0
    if radicand <= 0.0:
        raise DomainError(
            "no off-axis critical points: S_n >= 4n at n=%d" % (n,)
        )
    return math.atan(math.sqrt(mu / (n + mu) * radicand))

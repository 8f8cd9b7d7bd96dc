"""Regularized coordinates for the size/shape dynamics.

Two charts are implemented:

  devaney     (r, v, phi, w): shape angle phi on the open domain, the
              classical blow-up chart.  The vector field is singular at the
              domain ends (binary/partial collisions).
  newcoords   (r, v, theta, w): the shape angle re-parameterized by a
              circle map phi = phi(theta) chosen so that partial collisions
              become regular points and the flow extends to a double cover.
              theta is kept unwrapped (multi-cover); crossing counts are
              meaningful.

The half-circle chart (pyramidal/spatial problems) is a stereographic
re-parameterization, the quarter-circle chart (planar problem) a parallel
projection.  In both cases

    c1(theta), c2(theta) = (cos phi, sin phi),
    c1'^2 + c2'^2 = cos^2(theta) / c(theta)

for an analytic positive c(theta), and the regularized potential is
curly W(theta) = cos^2(theta) * V(phi(theta)).
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import DomainError, StructureError, TotalCollisionError
from .problems import (
    HALF_CIRCLE,
    QUARTER_CIRCLE,
    PYRAMIDAL,
    SPATIAL,
    ProblemSpec,
    _quantities,
    shape_f,
    shape_fprime,
)

DEVANEY = "devaney"
NEWCOORDS = "newcoords"

# the energy level of every state and field here
H = -1.0


@dataclass(frozen=True)
class State:
    """A phase point at the energy level H.  angle is phi in the devaney
    chart, theta in newcoords."""

    chart: str
    r: float
    v: float
    angle: float
    w: float

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.v, self.angle, self.w], dtype=float)

    def with_array(self, y) -> "State":
        return replace(
            self, r=float(y[0]), v=float(y[1]), angle=float(y[2]), w=float(y[3])
        )


@dataclass
class ChartData:
    c1: float
    c2: float
    c: float


def _chart(kind: str, si, co):
    """(cos phi, sin phi, c, c'/(sin theta cos theta)) from the sine and
    cosine of the chart angle theta."""
    if kind == HALF_CIRCLE:
        q = 1.0 + si * si
        return (1.0 - si * si) / q, 2.0 * si / q, 0.25 * q * q, q
    if kind == QUARTER_CIRCLE:
        c = 1.0 + co * co
        a = np.sqrt(c)
        return 0.5 * (a - si), 0.5 * (a + si), c, -2.0
    raise DomainError("unknown chart kind %r" % (kind,))


def chart_eval(kind: str, theta) -> ChartData:
    """(cos phi, sin phi) and the metric factor c at chart angle theta."""
    c1, c2, c, _ = _chart(kind, np.sin(theta), np.cos(theta))
    return ChartData(c1=c1, c2=c2, c=c)


def _chart_derivs(kind: str, theta):
    """d(c1)/d(theta), d(c2)/d(theta), closed forms."""
    s, co = np.sin(theta), np.cos(theta)
    if kind == HALF_CIRCLE:
        den = (1.0 + s * s) ** 2
        return -2.0 * np.sin(2.0 * theta) / den, 2.0 * co**3 / den
    if kind == QUARTER_CIRCLE:
        a = np.sqrt(1.0 + co * co)
        return -co * (a + s) / (2.0 * a), co * (a - s) / (2.0 * a)
    raise DomainError("unknown chart kind %r" % (kind,))


def c_quotient(kind: str, theta):
    """c'(theta) / (sin theta cos theta), continued analytically at the
    lines where the denominator vanishes."""
    q = _chart(kind, np.sin(theta), np.cos(theta))[3]
    return np.full(np.shape(theta), q) if np.ndim(theta) else q


def _phi(kind: str, si, c1, c2):
    """Shape angle phi from sin theta and the chart point (cos phi, sin phi);
    the half circle has the cheaper closed form 2 arctan(sin theta)."""
    if kind == HALF_CIRCLE:
        return 2.0 * np.arctan(si)
    return np.arctan2(c2, c1)


def phi_of_theta(p: ProblemSpec, theta):
    """Shape angle phi for chart angle theta (any cover)."""
    si = np.sin(theta)
    c1, c2, _, _ = _chart(p.chart, si, np.cos(theta))
    return _phi(p.chart, si, c1, c2)


def theta_of_phi(p: ProblemSpec, phi):
    """Principal chart angle for shape angle phi."""
    if p.chart == HALF_CIRCLE:
        return np.arcsin(np.tan(np.asarray(phi) / 2.0))
    return np.arcsin(np.sin(phi) - np.cos(phi))


def _terms(p: ProblemSpec, theta):
    """sin theta, cos theta, c, c', curly W and curly W' at chart angle
    theta: every chart term of the newcoords field and its energy.
    Broadcasts over arrays."""
    si, co = np.sin(theta), np.cos(theta)
    c1, c2, c, cq = _chart(p.chart, si, co)
    w, wp = _quantities(p, _phi(p.chart, si, c1, c2))
    if p.chart == HALF_CIRCLE:
        wc, wcp = (1.0 + si * si) * w, 2.0 * co * (si * w + wp)
    else:
        wc, wcp = 2.0 * w, 2.0 * co * wp / np.sqrt(c)
    return si, co, c, cq * si * co, wc, wcp


def curly_w(p: ProblemSpec, theta):
    """(curly W(theta), d/dtheta curly W(theta)) for the problem's chart."""
    return _terms(p, theta)[4:]


def v_of_theta(p: ProblemSpec, theta):
    """V along the chart, curly W / cos^2.  Singular on the arm lines."""
    wc, _ = curly_w(p, theta)
    return wc / np.cos(theta) ** 2


def theta_star(p: ProblemSpec) -> float:
    """Positive chart angle of the off-midpoint critical shape.

    The Lagrange-type equilibria sit at chart angles congruent to
    +-theta_star; raises StructureError when the potential has no
    off-midpoint critical pair.
    """
    cps = p.critical
    if cps.count != 3:
        raise StructureError("no off-midpoint critical pair for %r" % (p,))
    return float(theta_of_phi(p, cps.phi_R))


def _unpack(chart: str, y):
    """(r, v, angle, w) of a State in the given chart, or of a flat
    [r, v, angle, w] vector (or a (4, N) block of them)."""
    if isinstance(y, State):
        if y.chart != chart:
            raise DomainError("a %s-chart state given where the %s chart is"
                              " needed" % (y.chart, chart))
        return y.r, y.v, y.angle, y.w
    return y[0], y[1], y[2], y[3]


def devaney_rhs(p: ProblemSpec, y) -> np.ndarray:
    """Right-hand side of the blown-up system in the devaney chart, at a
    flat [r, v, phi, w] vector or a devaney State, at the energy H."""
    r, v, phi, w = _unpack(DEVANEY, y)
    wq, wqp = _quantities(p, phi)
    f = shape_f(p, phi)
    fp = shape_fprime(p, phi)
    bigf = f / math.sqrt(wq)
    dr = r * v * bigf
    dv = bigf * (2.0 * H * r - 0.5 * v * v) + math.sqrt(wq)
    dphi = w
    dw = (
        -0.5 * v * w * bigf
        + (wqp / wq) * (f - 0.5 * w * w)
        + fp * (1.0 + (f / wq) * (2.0 * H * r - v * v))
    )
    return np.array([dr, dv, dphi, dw])


def newcoords_rhs(p: ProblemSpec, y) -> np.ndarray:
    """Right-hand side in the regularized chart (partial collisions are
    regular points; the field is polynomial in the state given the chart
    functions).

    y is a flat [r, v, theta, w] vector, a (4, N) block of such columns
    (the result is then (4, N) too), or a newcoords State, at the energy H.
    """
    r, v, theta, w = _unpack(NEWCOORDS, y)
    si, co, c, cp, wc, wcp = _terms(p, theta)
    csq = co * co
    return np.array([
        r * v * csq,
        0.5 * v * v * csq + w * w * c - wc,
        w * c,
        wcp - 0.5 * v * w * csq + si * co * (v * v - 2.0 * H * r)
        - 0.5 * w * w * cp,
    ])


def energy_gradient(p: ProblemSpec, y):
    """(E, dE/dy): the newcoords energy residual and its gradient over
    [r, v, theta, w], in closed form from the field's chart terms.

    E = v^2 cos^2/2 + w^2 c/2 - curly W - H r cos^2, so dE/dv = v cos^2,
    dE/dw = w c and dE/dtheta = -sin cos (v^2 - 2 H r) + w^2 c'/2 - curly W'.
    y is taken as by newcoords_rhs.
    """
    r, v, theta, w = _unpack(NEWCOORDS, y)
    si, co, c, cp, wc, wcp = _terms(p, theta)
    csq = co * co
    res = 0.5 * v * v * csq + 0.5 * w * w * c - wc - H * r * csq
    grad = np.array([
        -H * csq,
        v * csq,
        -si * co * (v * v - 2.0 * H * r) + 0.5 * w * w * cp - wcp,
        w * c,
    ])
    return res, grad


def energy_residual(p: ProblemSpec, s: State) -> float:
    """Signed defect of the energy relation in the state's chart."""
    if s.chart == NEWCOORDS:
        return energy_gradient(p, s)[0]
    if s.chart == DEVANEY:
        wq, _ = _quantities(p, s.angle)
        f = shape_f(p, s.angle)
        return (
            s.w * s.w / (2.0 * f)
            - 1.0
            - (f / wq) * (s.r * H - 0.5 * s.v * s.v)
        )
    raise DomainError("unknown chart %r" % (s.chart,))


def solve_w(p: ProblemSpec, r: float, v: float, theta: float, sign: int = 1):
    """w >= 0 (or <= 0) satisfying the energy relation on the level H in the
    newcoords chart, or None when no real solution exists."""
    _, co, c, _, wc, _ = _terms(p, theta)
    csq = co * co
    arg = 2.0 * (wc - r * csq - 0.5 * v * v * csq) / c
    if arg < 0.0:
        if arg > -1e-12:
            arg = 0.0
        else:
            return None
    return sign * math.sqrt(arg)


# -- discrete symmetries ------------------------------------------------------

def _image(s, r, v, angle, w):
    """(r, v, angle, w) in the form of s: a State like s, or an array like
    the flat vector or (4, N) block s."""
    if isinstance(s, State):
        return replace(s, r=r, v=v, angle=angle, w=w)
    return np.array([r, v, angle, w])


def apply_symmetry(op: str, s):
    """Apply one of the built-in symmetries in the newcoords chart to a
    State, or to a flat vector or (4, N) block taken as by newcoords_rhs.

    Returns (image, time_reversing flag).  R1: (r,-v,theta,-w);
    R2: (r,-v,-theta,w); T1: (r,v,theta+pi,w).
    """
    r, v, theta, w = _unpack(NEWCOORDS, s)
    if op == "R1":
        return _image(s, r, -v, theta, -w), True
    if op == "R2":
        return _image(s, r, -v, -theta, w), True
    if op == "T1":
        return _image(s, r, v, theta + math.pi, w), False
    raise DomainError("unknown symmetry %r (expected R1, R2 or T1)" % (op,))


def sigma_line(theta_bar: float, s):
    """Reflection about the vertical line theta = theta_bar:
    (r, -v, 2 theta_bar - theta, w), of a state taken as by apply_symmetry.
    Time-reversing.  A flow symmetry for theta_bar any multiple of pi/2."""
    r, v, theta, w = _unpack(NEWCOORDS, s)
    return _image(s, r, -v, 2.0 * theta_bar - theta, w), True


def deck_transform(s: State):
    """The double-cover deck map (r, v, pi - theta, -w).  Time-preserving."""
    return replace(s, angle=math.pi - s.angle, w=-s.w), False


def classify_region(p: ProblemSpec, s: State) -> str:
    """Region label on the principal window [theta* - pi, 0].

    R_I/Q_I: theta in [theta*-pi, -pi/2] with w >= 0 / w <= 0;
    R_II/Q_II: theta in [-pi/2, -theta*]; R_III: theta in [-theta*, 0],
    w >= 0.  Everything else is "outside".
    """
    ts = theta_star(p)
    th, w = s.angle, s.w
    if ts - math.pi <= th <= -math.pi / 2.0:
        return "R_I" if w >= 0.0 else "Q_I"
    if -math.pi / 2.0 <= th <= -ts:
        return "R_II" if w >= 0.0 else "Q_II"
    if -ts <= th <= 0.0 and w >= 0.0:
        return "R_III"
    return "outside"


# -- configuration space ------------------------------------------------------


def _mass_scale(p: ProblemSpec) -> float:
    # second configuration coordinate per unit (r sin phi)
    if p.kind == PYRAMIDAL:
        return math.sqrt((p.n + p.mu) / p.mu)
    if p.kind == SPATIAL:
        return 2.0
    return 1.0


def to_configuration(p: ProblemSpec, s: State):
    """Physical configuration coordinates and velocities (q1, q2, q1dot,
    q2dot) for a state with r > 0.

    q1 is the polygon circumradius scale, q2 the second shape coordinate
    (apex height, polygon separation, or second-ring radius scale).  The
    inverse velocity rescalings v = sqrt(r) rdot and the chart w-definition
    are applied.  Velocities diverge at partial collisions (cos theta = 0
    in newcoords, f = 0 in devaney): a genuine binary collision.
    """
    if s.r == 0.0:
        raise TotalCollisionError("no configuration velocities at r = 0")
    k2 = _mass_scale(p)
    sqr = math.sqrt(s.r)
    if s.chart == NEWCOORDS:
        cd = chart_eval(p.chart, s.angle)
        c1p, c2p = _chart_derivs(p.chart, s.angle)
        csq = math.cos(s.angle) ** 2
        thetadot_r32 = s.w * cd.c / csq  # r^{3/2} * thetadot
        q1 = s.r * cd.c1
        q2 = s.r * k2 * cd.c2
        qd1 = s.v * cd.c1 / sqr + c1p * thetadot_r32 / sqr
        qd2 = k2 * (s.v * cd.c2 / sqr + c2p * thetadot_r32 / sqr)
        return q1, q2, qd1, qd2
    if s.chart == DEVANEY:
        phi = s.angle
        wq, _ = _quantities(p, phi)
        f = shape_f(p, phi)
        phidot_r32 = s.w * math.sqrt(wq) / f  # r^{3/2} * phidot
        c1, c2 = math.cos(phi), math.sin(phi)
        q1 = s.r * c1
        q2 = s.r * k2 * c2
        qd1 = s.v * c1 / sqr - c2 * phidot_r32 / sqr
        qd2 = k2 * (s.v * c2 / sqr + c1 * phidot_r32 / sqr)
        return q1, q2, qd1, qd2
    raise DomainError("unknown chart %r" % (s.chart,))


def from_configuration(p: ProblemSpec, q1, q2, qd1, qd2,
                       chart: str = NEWCOORDS) -> State:
    """Inverse of to_configuration onto the principal chart sheet."""
    k2 = _mass_scale(p)
    u1, u2 = q1, q2 / k2
    ud1, ud2 = qd1, qd2 / k2
    r = math.hypot(u1, u2)
    if r == 0.0:
        raise TotalCollisionError("total collision configuration")
    cphi, sphi = u1 / r, u2 / r
    rdot = (u1 * ud1 + u2 * ud2) / r
    phidot = (u1 * ud2 - u2 * ud1) / (r * r)
    v = math.sqrt(r) * rdot
    phi = math.atan2(sphi, cphi)
    if chart == DEVANEY:
        f = shape_f(p, phi)
        wq, _ = _quantities(p, phi)
        # sqrt(f/V) = f / sqrt(W); f > 0 on the open shape domain
        w = phidot * r**1.5 * f / math.sqrt(wq)
        return State(DEVANEY, r, v, phi, w)
    theta = float(theta_of_phi(p, phi))
    co = math.cos(theta)
    if p.chart == HALF_CIRCLE:
        dphi_dtheta = 2.0 * co / (1.0 + math.sin(theta) ** 2)
    else:
        dphi_dtheta = co / math.sqrt(1.0 + co * co)
    thetadot = phidot / dphi_dtheta
    c = chart_eval(p.chart, theta).c
    w = thetadot * r**1.5 * co * co / c
    return State(NEWCOORDS, r, v, theta, w)

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
    _xp,
    shape_f,
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


def _chart(kind: str, si, co, xp=np):
    """(cos phi, sin phi, c, c'/(sin theta cos theta)) from the sine and
    cosine of the chart angle theta, in the namespace xp.  The shape point
    (cos phi, sin phi) is algebraic in them, so no shape angle is formed;
    the last value is continued analytically where sin theta cos theta
    vanishes."""
    if kind == HALF_CIRCLE:
        q = 1.0 + si * si
        return (1.0 - si * si) / q, 2.0 * si / q, 0.25 * q * q, q
    if kind == QUARTER_CIRCLE:
        c = 1.0 + co * co
        a = xp.sqrt(c)
        return 0.5 * (a - si), 0.5 * (a + si), c, -2.0
    raise DomainError("unknown chart kind %r" % (kind,))


def chart_eval(kind: str, theta):
    """_chart's (cos phi, sin phi, c, c'/(sin theta cos theta)) at chart
    angle theta."""
    return _chart(kind, np.sin(theta), np.cos(theta))


def _dphi_dtheta(kind: str, theta: float) -> float:
    """dphi/dtheta at chart angle theta: cos theta / sqrt(c) on both charts,
    since c1'^2 + c2'^2 = cos^2(theta) / c and phi grows with theta where
    cos theta > 0."""
    return math.cos(theta) / math.sqrt(chart_eval(kind, theta)[2])


def phi_of_theta(p: ProblemSpec, theta):
    """Shape angle phi for chart angle theta (any cover); the half circle
    has the closed form 2 arctan(sin theta)."""
    si = np.sin(theta)
    if p.chart == HALF_CIRCLE:
        return 2.0 * np.arctan(si)
    c1, c2, _, _ = _chart(p.chart, si, np.cos(theta))
    return np.arctan2(c2, c1)


def theta_of_phi(p: ProblemSpec, phi):
    """Principal chart angle for shape angle phi."""
    if p.chart == HALF_CIRCLE:
        return np.arcsin(np.tan(np.asarray(phi) / 2.0))
    return np.arcsin(np.sin(phi) - np.cos(phi))


def _terms(p: ProblemSpec, theta):
    """sin theta, cos theta, c, c', curly W and curly W' at chart angle
    theta: every chart term of the newcoords field and its energy.
    Broadcasts over arrays; Python floats for a float theta."""
    xp = _xp(theta)
    si, co = xp.sin(theta), xp.cos(theta)
    c1, c2, c, cq = _chart(p.chart, si, co, xp)
    w, wp = _quantities(p, c1, c2)
    if p.chart == HALF_CIRCLE:
        wc, wcp = (1.0 + si * si) * w, 2.0 * co * (si * w + wp)
    else:
        wc, wcp = 2.0 * w, 2.0 * co * wp / xp.sqrt(c)
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


def devaney_rhs(p: ProblemSpec, y):
    """Right-hand side of the blown-up system in the devaney chart at the
    energy H, as a tuple.  y is the four floats r, v, phi, w."""
    r, v, phi, w = y
    co, si = math.cos(phi), math.sin(phi)
    wq, wqp = _quantities(p, co, si)
    f, fp = shape_f(p, co, si)
    bigf = f / math.sqrt(wq)
    dr = r * v * bigf
    dv = bigf * (2.0 * H * r - 0.5 * v * v) + math.sqrt(wq)
    dphi = w
    dw = (
        -0.5 * v * w * bigf
        + (wqp / wq) * (f - 0.5 * w * w)
        + fp * (1.0 + (f / wq) * (2.0 * H * r - v * v))
    )
    return dr, dv, dphi, dw


def _field(r, v, w, terms):
    """The newcoords field at (r, v, w) and the chart terms of its angle,
    as a tuple of its four components."""
    si, co, c, cp, wc, wcp = terms
    csq = co * co
    return (
        r * v * csq,
        0.5 * v * v * csq + w * w * c - wc,
        w * c,
        wcp - 0.5 * v * w * csq + si * co * (v * v - 2.0 * H * r)
        - 0.5 * w * w * cp,
    )


def _energy(r, v, w, terms):
    """(E, dE/dy) at (r, v, w) and the chart terms of its angle.

    E = v^2 cos^2/2 + w^2 c/2 - curly W - H r cos^2, so dE/dv = v cos^2,
    dE/dw = w c and dE/dtheta = -sin cos (v^2 - 2 H r) + w^2 c'/2 - curly W'.
    """
    si, co, c, cp, wc, wcp = terms
    csq = co * co
    res = 0.5 * v * v * csq + 0.5 * w * w * c - wc - H * r * csq
    grad = (
        -H * csq,
        v * csq,
        -si * co * (v * v - 2.0 * H * r) + 0.5 * w * w * cp - wcp,
        w * c,
    )
    return res, grad


def newcoords_rhs(p: ProblemSpec, y):
    """Right-hand side in the regularized chart (partial collisions are
    regular points; the field is polynomial in the state given the chart
    functions).

    y is r, v, theta, w at the energy H: four floats (a tuple or list),
    or the four rows of a (4, N) block.  Returns the four components as a
    tuple, of floats or of (N,) rows.
    """
    r, v, theta, w = y
    return _field(r, v, w, _terms(p, theta))


def energy_gradient(p: ProblemSpec, y):
    """(E, dE/dy): the newcoords energy residual and its gradient over
    [r, v, theta, w], in closed form from the field's chart terms.
    y is taken as by newcoords_rhs, and dE/dy is a tuple of its four
    components.
    """
    r, v, theta, w = y
    return _energy(r, v, w, _terms(p, theta))


def damped_reverse_rhs(p: ProblemSpec, y, damp: float):
    """The time-reversed newcoords field at the four floats r, v, theta, w,
    minus damp * E grad E / |grad E|^2 with the dE/dr part of grad E left
    out: the energy deviation decays toward the shell at rate damp, within
    the plane of constant r.  One chart-term evaluation serves both the
    field and the energy.  Returns a tuple of floats."""
    r, v, theta, w = y
    terms = _terms(p, theta)
    dr, dv, dtheta, dw = _field(r, v, w, terms)
    res, (_, gv, gtheta, gw) = _energy(r, v, w, terms)
    n2 = gv * gv + gtheta * gtheta + gw * gw
    if n2 > 0.0:
        a = damp * res
        return (-dr, -dv - a * gv / n2, -dtheta - a * gtheta / n2,
                -dw - a * gw / n2)
    return -dr, -dv, -dtheta, -dw


def energy_residual(p: ProblemSpec, s: State) -> float:
    """Signed defect of the energy relation in the state's chart."""
    if s.chart == NEWCOORDS:
        return energy_gradient(p, (s.r, s.v, s.angle, s.w))[0]
    if s.chart == DEVANEY:
        co, si = math.cos(s.angle), math.sin(s.angle)
        wq, _ = _quantities(p, co, si)
        f, _ = shape_f(p, co, si)
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

def _image(s, f):
    """f(r, v, theta, w) in the form of s: a State like the newcoords State
    s, or an array for the flat vector or (4, N) block s."""
    if isinstance(s, State):
        if s.chart != NEWCOORDS:
            raise DomainError("a %s-chart state given where the newcoords"
                              " chart is needed" % (s.chart,))
        r, v, angle, w = f(s.r, s.v, s.angle, s.w)
        return replace(s, r=r, v=v, angle=angle, w=w)
    return np.array(f(*s))


def apply_symmetry(op: str, s):
    """Apply one of the built-in symmetries in the newcoords chart to a
    newcoords State, or to a flat vector or (4, N) block of [r, v, theta, w].

    Returns (image, time_reversing flag).  R1: (r,-v,theta,-w);
    R2: (r,-v,-theta,w); T1: (r,v,theta+pi,w).
    """
    if op == "R1":
        return _image(s, lambda r, v, th, w: (r, -v, th, -w)), True
    if op == "R2":
        return _image(s, lambda r, v, th, w: (r, -v, -th, w)), True
    if op == "T1":
        return _image(s, lambda r, v, th, w: (r, v, th + math.pi, w)), False
    raise DomainError("unknown symmetry %r (expected R1, R2 or T1)" % (op,))


def sigma_line(theta_bar: float, s):
    """Reflection about the vertical line theta = theta_bar:
    (r, -v, 2 theta_bar - theta, w), of a state taken as by apply_symmetry.
    Time-reversing.  A flow symmetry for theta_bar any multiple of pi/2."""
    image = _image(s, lambda r, v, th, w: (r, -v, 2.0 * theta_bar - th, w))
    return image, True


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
    # (c1, c2) = (cos phi, sin phi) and r^{3/2} phidot; on newcoords
    # r^{3/2} thetadot = w c / cos^2 theta
    if s.chart == NEWCOORDS:
        c1, c2, c, _ = chart_eval(p.chart, s.angle)
        phidot_r32 = (s.w * c / math.cos(s.angle) ** 2
                      * _dphi_dtheta(p.chart, s.angle))
    elif s.chart == DEVANEY:
        c1, c2 = math.cos(s.angle), math.sin(s.angle)
        wq, _ = _quantities(p, c1, c2)
        phidot_r32 = s.w * math.sqrt(wq) / shape_f(p, c1, c2)[0]
    else:
        raise DomainError("unknown chart %r" % (s.chart,))
    # the chart derivatives are c1' = -c2 phi' and c2' = c1 phi'
    k2 = _mass_scale(p)
    sqr = math.sqrt(s.r)
    q1 = s.r * c1
    q2 = s.r * k2 * c2
    qd1 = s.v * c1 / sqr - c2 * phidot_r32 / sqr
    qd2 = k2 * (s.v * c2 / sqr + c1 * phidot_r32 / sqr)
    return q1, q2, qd1, qd2


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
        f, _ = shape_f(p, cphi, sphi)
        wq, _ = _quantities(p, cphi, sphi)
        # sqrt(f/V) = f / sqrt(W); f > 0 on the open shape domain
        w = phidot * r**1.5 * f / math.sqrt(wq)
        return State(DEVANEY, r, v, phi, w)
    theta = float(theta_of_phi(p, phi))
    co = math.cos(theta)
    thetadot = phidot / _dphi_dtheta(p.chart, theta)
    c = chart_eval(p.chart, theta)[2]
    w = thetadot * r**1.5 * co * co / c
    return State(NEWCOORDS, r, v, theta, w)

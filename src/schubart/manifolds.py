"""Equilibria of the blown-up flow and collision-manifold branch tracing.

All equilibria sit on the collision manifold (r = 0) with w = 0 and
v = +-sqrt(2 V) evaluated at a critical shape.  The flow on the collision
manifold is gradient-like in v, so the one-dimensional unstable branches of
the v < 0 saddle points can be traced forward until they leave through an
arm of the manifold or reach another equilibrium.  The v-values where the
branches cross the distinguished lines theta in {-pi/2, 0, pi/2} are the
landmark numbers v0..v5 used by the orbit-existence arguments:

    v1  gamma  first crossing of theta = -pi/2
    v2  gamma  first crossing of theta = 0 after v1
    v3  gamma' first crossing of theta = 0
    v4  gamma  first crossing of theta = +pi/2 after v2   (planar only)
    v5  gamma' first crossing of theta = +pi/2 after v3   (planar only)
    v0  stable branch of L'_-, traced backward, at theta = -pi/2

Branches are traced in the regularized (newcoords) chart.  Each trace
also carries the name that the classical blow-up chart gives the same
branch (gamma there is based at the right-hand saddle).
"""

from dataclasses import dataclass
import math

import numpy as np

from . import dynamics as dyn
from .dynamics import State
from .errors import DomainError, LinearizationError, OrientationError
from .odeint import (Controls, EventSpec, Trajectory, field_for, integrate,
                     integrate_collision_manifold)
from .problems import QUARTER_CIRCLE, ProblemSpec, potential

BRANCH_IDS = ("gamma", "gamma-", "gamma'", "gamma'-", "gamma''", "stable-of-L'-")

# the devaney-chart name of each newcoords-chart branch, where one exists
_DEVANEY_NAMES = {
    "gamma": "gamma''",
    "gamma'": "gamma'",
    "stable-of-L'-": "stable-of-L'-",
}


@dataclass
class Equilibrium:
    kind: str  # Lagrange | Euler
    label: str  # L+-, L'+-, L''+-, E+-
    state: State
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns match eigenvalues


@dataclass
class BranchTrace:
    branch: str
    names: dict  # chart name -> branch name (both namings of one object)
    trajectory: Trajectory
    landmarks: dict  # subset of v0..v5
    termination: str  # hole B_a+ | hole B_b+ | equilibrium | cap
    damping: float  # energy-damping rate of a backward trace; None forward


def _jacobian(problem: ProblemSpec, st: State) -> np.ndarray:
    """Central finite-difference Jacobian, relative step 1e-6 per component."""
    rhs = field_for(problem)
    x = np.array(st)
    jac = np.empty((4, 4))
    for j in range(4):
        step = 1e-6 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        jac[:, j] = np.subtract(rhs(0.0, xp.tolist()),
                                rhs(0.0, xm.tolist())) / (2.0 * step)
    if not np.all(np.isfinite(jac)):
        raise LinearizationError("non-finite Jacobian at %r" % (st,))
    return jac


def _make_equilibrium(problem, kind, label, angle, v) -> Equilibrium:
    st = State(0.0, v, angle, 0.0)
    jac = _jacobian(problem, st)
    try:
        vals, vecs = np.linalg.eig(jac)
    except np.linalg.LinAlgError as exc:
        raise LinearizationError(str(exc))
    return Equilibrium(kind=kind, label=label, state=st,
                       eigenvalues=vals, eigenvectors=vecs)


def _candidates(problem: ProblemSpec):
    """(kind, label, angle, v) of every equilibrium of the field, in the
    order equilibria() lists them; nothing is linearized here."""
    cps = problem.critical
    v_mid = math.sqrt(2.0 * potential(problem, cps.phi_m, "V"))
    # the midpoint shape sits at theta = 0 for both chart kinds
    points = [("Euler", "E", 0.0, v_mid)]
    if cps.count == 3:
        v_star = math.sqrt(2.0 * potential(problem, cps.phi_R, "V"))
        ts = dyn.theta_star(problem)
        points += [("Lagrange", label, angle, v_star) for label, angle in
                   (("L", ts - math.pi), ("L'", -ts), ("L''", ts))]
    return [(kind, label + sign, angle, v if sign == "+" else -v)
            for kind, label, angle, v in points for sign in "+-"]


def equilibria(problem: ProblemSpec):
    """All equilibria of the field on the energy level h = -1, at their
    principal-window representatives: Euler points at theta = 0 and
    Lagrange points at theta in {theta*-pi, -theta*, +theta*}.
    """
    return [_make_equilibrium(problem, kind, label, angle, v)
            for kind, label, angle, v in _candidates(problem)]


def equilibrium(problem: ProblemSpec, label: str):
    """The one labelled equilibrium of equilibria(), linearized alone."""
    for kind, name, angle, v in _candidates(problem):
        if name == label:
            return _make_equilibrium(problem, kind, name, angle, v)
    raise DomainError("no equilibrium labeled %r" % (label,))


def _manifold_tangent_vector(problem: ProblemSpec, eq: Equilibrium,
                             stable: bool) -> np.ndarray:
    """The collision-manifold tangent eigenvector with the requested
    stability, as a real unit 4-vector.

    The 4-D Jacobian can carry a repeated stable eigenvalue whose numerical
    eigenbasis mixes the manifold-tangent direction with the transverse one,
    so the tangent is taken from the flow restricted to the manifold: solve
    v from the energy relation on r = 0 (keeping the equilibrium's v-sign),
    linearize the reduced (theta, w) system, and lift the saddle eigenvector
    back through the constraint.
    """
    sign_v = 1.0 if eq.state.v > 0 else -1.0

    def v_on_manifold(theta, w):
        cw, _ = dyn.curly_w(problem, theta)
        c = dyn.chart_eval(problem, theta)[2]
        big_c = math.cos(theta) ** 2
        return sign_v * math.sqrt(max(2.0 * cw - w * w * c, 0.0) / big_c)

    def reduced(theta, w):
        dy = dyn.newcoords_rhs(
            problem, (0.0, v_on_manifold(theta, w), theta, w))
        return np.array([dy[2], dy[3]])

    th0, w0 = eq.state.angle, eq.state.w
    jac = np.empty((2, 2))
    for j, (dth, dw) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        step = 1e-6
        jac[:, j] = (reduced(th0 + step * dth, w0 + step * dw)
                     - reduced(th0 - step * dth, w0 - step * dw)) / (2.0 * step)
    vals, vecs = np.linalg.eig(jac)
    if np.any(np.abs(vals.imag) > 1e-8):
        raise LinearizationError(
            "complex manifold spectrum at %s: %r" % (eq.label, vals))
    vals = vals.real
    idx = int(np.argmin(vals)) if stable else int(np.argmax(vals))
    if (vals[idx] >= -1e-8) if stable else (vals[idx] <= 1e-8):
        raise LinearizationError(
            "no %s manifold direction at %s (eigenvalues %r)"
            % ("stable" if stable else "unstable", eq.label, vals))
    dth, dw = np.real(vecs[:, idx])
    h = 1e-6
    dv = (v_on_manifold(th0 + h * dth, w0 + h * dw)
          - v_on_manifold(th0 - h * dth, w0 - h * dw)) / (2.0 * h)
    vec = np.array([0.0, dv, dth, dw])
    return vec / np.linalg.norm(vec)


_LINE_TARGETS = (-math.pi / 2.0, 0.0, math.pi / 2.0)
_LANDMARK_DEFS = {
    # branch -> chain of (landmark name, target line); each landmark is the
    # first crossing of its line strictly after the previous landmark
    "gamma": [("v1", -math.pi / 2.0), ("v2", 0.0), ("v4", math.pi / 2.0)],
    "gamma'": [("v3", 0.0), ("v5", math.pi / 2.0)],
    "stable-of-L'-": [("v0", -math.pi / 2.0)],
}


# Backward traces damp their energy deviation at this multiple of the base
# saddle's fastest rate, max |Re lambda|: the margin over the deviation's own
# growth (see trace_branch for why the rate is not fixed).
_DAMPING_FACTOR = 2.0


def default_epsilon(eq: Equilibrium) -> float:
    return 1e-7 * max(1.0, abs(eq.state.v))


def trace_branch(problem: ProblemSpec, branch: str, epsilon: float = None,
                 controls: Controls = None,
                 stop_at_last_landmark: bool = False) -> BranchTrace:
    """Trace one invariant-manifold branch on the collision manifold.

    The seed sits at the base equilibrium offset by epsilon along the unit
    eigenvector tangent to the manifold, oriented so the w-component carries
    the branch's sign.  Unstable branches run forward, the stable branch of
    L'_- runs backward.  Crossings of theta in {-pi/2, 0, pi/2} are recorded
    and turned into landmark values.

    The backward run damps its energy deviation toward the shell at rate
    damping = 2 max |Re lambda| over the base saddle's spectrum (kept on
    the result; None forward).  The rate only has to beat the deviation's
    own growth, which that spectrum bounds.  A fixed rate is either below
    a fast saddle's (planar n=10's reaches 10.9) or needlessly stiff for a
    slow one: at rate 20, DOP853's step on pyramidal n=2 is held by its
    stability limit, and the trace takes 3.7x the field evaluations and ends
    with a 200x larger energy residual.

    stop_at_last_landmark cuts the integration at the final line of the
    branch's landmark chain (the termination field then reports "cap");
    branches run on toward a manifold hole otherwise.
    """
    if branch not in BRANCH_IDS:
        raise DomainError("unknown branch %r" % (branch,))
    traced_as = "gamma" if branch == "gamma''" else branch
    backward = traced_as == "stable-of-L'-"
    base_label = {
        "gamma": "L-", "gamma-": "L-",
        "gamma'": "L'-", "gamma'-": "L'-",
        "stable-of-L'-": "L'-",
    }[traced_as]
    want_sign = -1.0 if traced_as.endswith("-") and traced_as != "stable-of-L'-" \
        else 1.0
    eq = equilibrium(problem, base_label)
    vec = _manifold_tangent_vector(problem, eq, stable=backward)
    if abs(vec[3]) < 1e-8:
        raise OrientationError(
            "eigenvector w-component %.3e cannot orient branch %s"
            % (abs(vec[3]), branch)
        )
    if vec[3] * want_sign < 0.0:
        vec = -vec
    if epsilon is None:
        epsilon = default_epsilon(eq)
    y0 = np.array(eq.state) + epsilon * vec
    y0[0] = 0.0  # stay on the collision manifold exactly
    seed = State(*y0.tolist())

    if controls is None:
        controls = Controls(max_s=40.0)
    # the landmarks on the pi/2 line, v4 and v5, are planar only
    chain = [(name, t) for name, t in _LANDMARK_DEFS.get(traced_as, [])
             if name not in ("v4", "v5") or problem.chart == QUARTER_CIRCLE]
    stop_line = chain[-1][1] if stop_at_last_landmark and chain else None
    events = [EventSpec.angle(t) if t != stop_line
              else EventSpec.angle(t, action="stop")
              for t in _LINE_TARGETS]
    damping = None
    if backward:
        # The raw reversed field lets an off-shell energy deviation grow,
        # so the raw backward trace never converges in epsilon.  Damp the
        # deviation toward the energy shell; the extra term vanishes on the
        # shell and leaves the traced branch unchanged.  It acts within
        # r = 0 (no dE/dr part), so the run stays on the manifold like the
        # seed.  The deviation can grow at any rate of the saddle's
        # spectrum, not only at the branch's reduced one (1.389 against
        # 0.786 on pyramidal n=2), so the damping follows the fastest.
        damping = _DAMPING_FACTOR * float(np.max(np.abs(eq.eigenvalues.real)))
        traj = integrate(
            lambda s_, y: dyn.damped_reverse_rhs(problem, y, damping), seed,
            events=events, controls=controls)
    else:
        traj = integrate_collision_manifold(problem, seed, events=events,
                                            controls=controls)

    landmarks = {}
    hits = [h for h in traj.events if h.kind == "angle-crossing"]
    s_prev = -1.0
    for name, target in chain:
        nxt = next((h for h in hits
                    if h.spec.level == target and h.s > s_prev), None)
        if nxt is None:
            break
        landmarks[name] = nxt.state.v
        s_prev = nxt.s

    end = traj.end_state
    termination = "cap"
    rhs_end = dyn.newcoords_rhs(problem, end)
    if float(np.max(np.abs(rhs_end[1:]))) < 1e-6 and abs(end.w) < 1e-4:
        termination = "equilibrium"
    elif abs(end.v) > 1.2 * abs(eq.state.v) and not stop_at_last_landmark:
        # an arm exit approaches |v| cos(theta) -> sqrt(2 curly W(arm)) with
        # w -> 0 (v itself grows only logarithmically near the hole)
        m = round(end.angle / math.pi * 2.0)
        if m % 2 != 0:
            arm = m * math.pi / 2.0
            inv = math.sqrt(2.0 * dyn.curly_w(problem, arm)[0])
            if (abs(abs(end.v) * abs(math.cos(end.angle)) - inv) < 0.3 * inv
                    and abs(end.w) < 0.5):
                d_a = abs(_angle_mod_gap(arm, -math.pi / 2.0))
                d_b = abs(_angle_mod_gap(arm, math.pi / 2.0))
                sign = "+" if end.v > 0 else "-"
                termination = ("hole B_a" if d_a <= d_b else "hole B_b") + sign
    names = {"newcoords": traced_as}
    if traced_as in _DEVANEY_NAMES:
        names["devaney"] = _DEVANEY_NAMES[traced_as]
    return BranchTrace(branch=branch, names=names, trajectory=traj,
                       landmarks=landmarks, termination=termination,
                       damping=damping)


def _angle_mod_gap(theta: float, target: float) -> float:
    """Signed distance from theta to the target line modulo 2 pi."""
    d = (theta - target) % (2.0 * math.pi)
    return d - 2.0 * math.pi if d > math.pi else d


def trace_landmarks(problem: ProblemSpec, epsilon: float = None) -> dict:
    """All available landmarks v0..v5, traced on the three defining
    branches."""
    out = {}
    for branch in ("gamma", "gamma'", "stable-of-L'-"):
        out.update(trace_branch(problem, branch, epsilon=epsilon,
                                stop_at_last_landmark=True).landmarks)
    return out


def landmark_values(problem: ProblemSpec, epsilon: float = None) -> dict:
    """All available landmarks v0..v5 from the three defining traces.

    The default-epsilon values are traced once per problem, as its cached
    `landmarks`.
    """
    if epsilon is None:
        return dict(problem.landmarks)
    return trace_landmarks(problem, epsilon)


def check_N4(problem: ProblemSpec) -> dict:
    """Numerical separation |v2 + v3| (heteroclinic-coincidence guard)."""
    marks = landmark_values(problem)
    if "v2" not in marks or "v3" not in marks:
        raise DomainError("landmarks v2/v3 unavailable for %r" % (problem,))
    sep = abs(marks["v2"] + marks["v3"])
    return {"separation": sep, "pass": bool(sep > 1e-6)}

"""Sufficient-condition checks and the comparison ODEs behind them.

The branch landmark v1 controls one family-existence hypothesis, and a
scalar comparison argument bounds it without tracing the branch: in the
variable g = v / sqrt(W), the collision-manifold branch that leaves the
off-midpoint equilibrium toward the arm satisfies

    dg/dphi = sqrt(1/(2 cos phi) - g^2/4) - (g/2) (W'/W)(phi),

and replacing the (W'/W) term by solvable bounds gives three comparison
curves:

    g1: no drift term, exact solution -sqrt(2 cos phi), g1(0) = -sqrt(2);
    g2: drift replaced by the constant bound 4/5, seeded at pi/4;
    g3: true (W'/W), seeded at pi/4 with the same corner value.

Each curve is integrated in u = sqrt(pi/2 - phi), which keeps the arm
endpoint regular, by the toolkit's own DOP853 (`odeint.integrate` on a
one-component state, rtol 1e-12, atol 1e-14).  It runs in s = u0 - u
from s = 0 at the seed to s = u0 at the arm, and is stored at the 513
points s = k u0 / 512.

The conditions verified here:

    N1  W' <= 0 on [0, pi/2)                      (grid evidence)
    N2  V(phi_R) - sin^2((phi_R - phi_m)/2) V(phi_m) > 0
    N3  N1 plus W(pi/2) = S_n/4 and max |W'/W| <= 4/5 on [pi/4, pi/2)
    N3' g3(pi/2) >= beta  (beta defaults to -1.32)
    N4  |v2 + v3| bounded away from zero (branch landmarks)

All grid checks are numerical evidence, not proofs; each report entry
records the values it was decided on.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from . import manifolds as mf
from .errors import (
    BoundTooWeakError,
    DivergenceError,
    DomainError,
    ManifoldDepartureError,
)
from .odeint import Controls, integrate
from .problems import (
    HALF_CIRCLE,
    PLANAR,
    ProblemSpec,
    potential,
    spatial,
)

DEFAULT_BETA = -1.32
# constant in the axial-interaction ceiling delta n / pi
SPATIAL_DELTA = 3.83

G_KINDS = ("gamma", "g1", "g2", "g3")

CONDITION_NAMES = ("N1", "N2", "N3", "N3prime", "N4")


@dataclass
class GComparisonResult:
    """One integrated comparison curve, stored on its phi grid."""

    kind: str
    endpoint_phi: float
    endpoint_g: float
    phis: np.ndarray = field(repr=False, default=None)
    gs: np.ndarray = field(repr=False, default=None)


@dataclass
class ConditionReport:
    problem: ProblemSpec
    entries: dict  # name -> {"status", "evidence", "method"}


# -- elliptic integrals -------------------------------------------------------


def _agm_pair(m):
    """(K, E) by the arithmetic-geometric mean, parameter m <= 1."""
    if m == 1.0:
        raise DivergenceError("K(1) diverges")
    a, b = 1.0, math.sqrt(1.0 - m)
    csq = m  # c_n^2 = a_n^2 - b_n^2, tracked squared so m < 0 works
    total = 0.5 * csq
    power = 0.5
    for _ in range(64):
        if abs(csq) < 1e-34 * max(1.0, abs(total)):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        csq = (0.25 * csq / a) ** 2  # c_{k+1} = c_k^2 / (4 a_{k+1})
        power *= 2.0
        total += power * csq
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - total)


def elliptic(m: float, method: str = "quadrature"):
    """Complete elliptic integrals (K, E) for parameter m <= 1.

    Integrand convention: K uses 1/sqrt(1 - m cos^2), E uses
    sqrt(1 - m sin^2), both over [0, pi/2].  Negative m is allowed.  The
    quadrature route is cross-checked against the AGM route to 1e-10.
    """
    if not m <= 1.0:
        raise DomainError("elliptic integrals need m <= 1, got %r" % (m,))
    if method not in ("quadrature", "agm"):
        raise DomainError("unknown elliptic method %r" % (method,))
    if m == 1.0:
        raise DivergenceError("K(1) diverges")
    if method == "agm":
        return _agm_pair(m)
    k, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.cos(t) ** 2),
                0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    e, _ = quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
                0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    ka, ea = _agm_pair(m)
    if abs(k - ka) > 1e-10 * max(1.0, abs(k)) or abs(e - ea) > 1e-10 * max(
            1.0, abs(e)):
        raise DivergenceError(
            "elliptic routes disagree at m=%r: quad (%r, %r) vs agm (%r, %r)"
            % (m, k, e, ka, ea))
    return k, e


def elliptic_e(m: float) -> float:
    """E(m) alone; handles the m = 1 corner where E(1) = 1 exactly."""
    if m == 1.0:
        return 1.0
    return elliptic(m)[1]


# -- comparison ODEs ----------------------------------------------------------


def _tt_over_sin(x: float) -> float:
    # x / sin(x), stable at 0
    if abs(x) < 1e-8:
        return 1.0 + x * x / 6.0
    return x / math.sin(x)


def _g_rhs_factory(problem: ProblemSpec, kind: str, u0: float):
    """dg/ds = -dg/du with u = sqrt(pi/2 - phi) = u0 - s, so s runs
    forward from 0 at the seed to u0 at the arm; the 2u Jacobian folded
    into the square root keeps the arm endpoint regular."""
    half_pi = math.pi / 2.0

    if kind == "g3" or kind == "gamma":
        def drift(phi, g, u):
            w, wp = problem.quantities(math.cos(phi), math.sin(phi), math)
            return u * g * (wp / w)
    elif kind == "g2":
        def drift(phi, g, u):
            return -(4.0 / 5.0) * u * g
    else:  # g1
        def drift(phi, g, u):
            return 0.0

    def rhs(s, y):
        # on Python floats: the drift's potential then runs on math
        u, g = u0 - float(s), float(y[0])
        usq = u * u
        phi = half_pi - usq
        arg = 2.0 * _tt_over_sin(usq) - usq * g * g
        if arg < -1e-10:
            raise ManifoldDepartureError(
                "square-root argument %r at phi=%r: the comparison state "
                "left the collision-manifold chart" % (arg, phi))
        return [math.sqrt(max(arg, 0.0)) - drift(phi, g, u)]

    return rhs


def _g_initial(problem: ProblemSpec, kind: str):
    """(phi0, g0) for the requested comparison curve."""
    if kind == "g1":
        return 0.0, -math.sqrt(2.0)
    if kind in ("g2", "g3"):
        return math.pi / 4.0, -math.sqrt(2.0 * math.sqrt(2.0))
    # gamma: corner seed at the off-midpoint critical angle, where the
    # square-root term vanishes identically; offset by delta with the
    # one-sided slope so the integrator starts off the degenerate point
    if problem.chart != HALF_CIRCLE:
        raise DomainError(
            "the branch comparison curve is defined for the half-circle "
            "chart only")
    cps = problem.critical
    if cps.count != 3:
        raise DomainError("no off-midpoint critical angle for %r" % (problem,))
    phi_r = cps.phi_R
    g_star = -math.sqrt(2.0 / math.cos(phi_r))
    w, wp = problem.quantities(math.cos(phi_r), math.sin(phi_r), math)
    slope = -(g_star / 2.0) * (wp / w)
    delta = 1e-8
    return phi_r + delta, g_star + slope * delta


def integrate_g(problem: ProblemSpec, kind: str) -> GComparisonResult:
    """Integrate one comparison curve from its seed to phi = pi/2, on the
    toolkit's DOP853 at rtol 1e-12 and atol 1e-14, sampled at 513 points
    evenly spaced in u."""
    if kind not in G_KINDS:
        raise DomainError("unknown comparison kind %r" % (kind,))
    phi0, g0 = _g_initial(problem, kind)
    u0 = math.sqrt(math.pi / 2.0 - phi0)
    traj = integrate(_g_rhs_factory(problem, kind, u0), [g0],
                     controls=Controls(rtol=1e-12, atol=1e-14, max_s=u0,
                                       sample_ds=u0 / 512.0))
    if traj.termination != "time-limit":
        raise ManifoldDepartureError(
            "comparison integration ended by %s at phi=%r"
            % (traj.termination, math.pi / 2.0 - (u0 - traj.end_s) ** 2))
    phis = math.pi / 2.0 - (u0 - traj.s) ** 2
    gs = traj.y[0]
    return GComparisonResult(kind=kind, endpoint_phi=float(phis[-1]),
                             endpoint_g=float(gs[-1]), phis=phis, gs=gs)


# -- certificate and envelope bounds ------------------------------------------


def v2_certificate(problem: ProblemSpec, beta_hat: float = None) -> dict:
    """Sign certificate for the second branch landmark.

    Adds the g-lower-bound beta_hat to the integral
    int_0^{pi/2} sqrt(1/(2 cos phi) - beta_hat^2/4) dphi; a positive total
    certifies v2 > 0.  The integrable endpoint singularity is handled by
    the substitution phi = pi/2 - t^2.
    """
    if beta_hat is None:
        beta_hat = DEFAULT_BETA
    if not math.isfinite(beta_hat):
        raise DomainError("beta_hat must be finite, got %r" % (beta_hat,))
    if beta_hat * beta_hat > 2.0:
        raise BoundTooWeakError(
            "integrand turns negative near phi = 0: beta_hat^2 = %r > 2"
            % (beta_hat * beta_hat,))
    quarter = beta_hat * beta_hat / 4.0

    def integrand(t):
        tsq = t * t
        # sqrt(1/(2 sin t^2) - b^2/4) * 2t, folded to stay finite at t = 0
        arg = 2.0 * _tt_over_sin(tsq) - 4.0 * tsq * quarter
        return math.sqrt(max(arg, 0.0))

    total, _ = quad(integrand, 0.0, math.sqrt(math.pi / 2.0),
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    value = beta_hat + total
    return {
        "lower_bound_g_at_0": value,
        "integral": total,
        "beta_hat": beta_hat,
        "pass": bool(value > 0.0),
    }


def spatial_envelope(phi: float) -> float:
    """Large-n ceiling 2 E(-cot^2 phi) for the ring-interaction derivative."""
    c = math.tan(phi)
    if c == 0.0:
        raise DomainError("envelope undefined at phi = 0")
    return 2.0 * elliptic_e(-1.0 / (c * c))


def spatial_Wprime_bound(n: int) -> dict:
    """Grid bound max 4|W'| on [pi/4, pi/2) against the ceiling delta n/pi."""
    if n < 2:
        raise DomainError("spatial problem needs n >= 2")
    p = spatial(n)
    phis = np.linspace(math.pi / 4.0, math.pi / 2.0 - 1e-9, 10000)
    got = float(np.max(4.0 * np.abs(potential(p, phis, "W'"))))
    bound = SPATIAL_DELTA * n / math.pi
    return {"max_4Wprime": got, "bound": bound, "pass": bool(got < bound)}


# -- condition checks ----------------------------------------------------------


def _entry(status, evidence, method):
    return {"status": status, "evidence": evidence, "method": method}


def _not_applicable(reason):
    return _entry("not-applicable", [], reason)


def _check_N1(p: ProblemSpec) -> dict:
    if p.kind == PLANAR:
        return _not_applicable(
            "monotonicity stated on [0, pi/2); the planar shape domain is "
            "(0, pi/2) with W symmetric about pi/4")
    phis = np.linspace(0.0, math.pi / 2.0, 100000, endpoint=False)
    wp = potential(p, phis, "W'")
    worst = float(np.max(wp))
    # between-node safeguard: observed Lipschitz constant of W' times half
    # the node spacing bounds how far an interior value can exceed the grid
    h = float(phis[1] - phis[0])
    lip = float(np.max(np.abs(np.diff(wp)))) / h
    margin = lip * h / 2.0
    status = "pass" if worst <= 1e-12 else "fail"
    return _entry(status, [("max_Wprime_grid", worst),
                           ("between_node_margin", margin)],
                  "W' on a 1e5 grid of [0, pi/2), numerical evidence")


def _check_N2(p: ProblemSpec) -> dict:
    cps = p.critical
    if cps.count != 3:
        return _entry("fail", [("critical_count", float(cps.count))],
                      "no off-midpoint critical pair")
    v_r = potential(p, cps.phi_R, "V")
    v_m = potential(p, cps.phi_m, "V")
    gap = math.sin((cps.phi_R - cps.phi_m) / 2.0) ** 2
    margin = v_r - gap * v_m
    return _entry("pass" if margin > 0.0 else "fail",
                  [("margin", margin), ("V_phi_R", v_r), ("V_phi_m", v_m)],
                  "saddle-vs-midpoint potential margin")


def _check_N3(p: ProblemSpec, n1: dict) -> dict:
    """N3 needs N1's pass: n1 is N1's entry, computed here when None."""
    if p.kind == PLANAR:
        return _not_applicable(
            "the drift-ratio bound is stated for the half-circle chart")
    if n1 is None:
        n1 = _check_N1(p)
    w_arm = potential(p, math.pi / 2.0, "W")
    arm_defect = abs(w_arm - p.s_n / 4.0)
    phis = np.linspace(math.pi / 4.0, math.pi / 2.0, 100000, endpoint=False)
    w, wp = p.quantities(np.cos(phis), np.sin(phis), np)
    ratio = np.abs(wp / w)
    worst = float(np.max(ratio))
    ok = (n1["status"] == "pass" and arm_defect <= 1e-10 and worst <= 0.8)
    return _entry("pass" if ok else "fail",
                  [("max_abs_Wprime_over_W", worst),
                   ("arm_value_defect", arm_defect)],
                  "N1 plus arm normalization plus drift-ratio grid bound")


def _check_N3prime(p: ProblemSpec, beta: float) -> dict:
    if p.kind == PLANAR:
        return _not_applicable(
            "the comparison ODE seed normalization assumes the half-circle "
            "chart")
    res = integrate_g(p, "g3")
    ok = res.endpoint_g >= beta
    return _entry("pass" if ok else "fail",
                  [("g3_endpoint", res.endpoint_g), ("beta", beta)],
                  "g3 comparison curve endpoint against beta")


def _check_N4(p: ProblemSpec) -> dict:
    got = mf.check_N4(p)
    return _entry("pass" if got["pass"] else "fail",
                  [("separation", got["separation"])],
                  "branch landmark separation |v2 + v3|")


def check_condition(problem: ProblemSpec, which: str,
                    beta: float = None, n1: dict = None) -> dict:
    """One report entry for N1, N2, N3, N3prime or N4.  N3 reads N1's
    status; n1, N1's entry when it is at hand, spares computing it again."""
    beta = DEFAULT_BETA if beta is None else beta
    if not math.isfinite(beta):
        raise DomainError("beta must be finite, got %r" % (beta,))
    if which == "N1":
        return _check_N1(problem)
    if which == "N2":
        return _check_N2(problem)
    if which == "N3":
        return _check_N3(problem, n1)
    if which == "N3prime":
        return _check_N3prime(problem, beta)
    if which == "N4":
        return _check_N4(problem)
    raise DomainError("unknown condition %r" % (which,))


def condition_report(problem: ProblemSpec,
                     beta: float = None) -> ConditionReport:
    """All five condition entries; N1's grid is evaluated once, for N1
    and N3 both."""
    entries = {}
    for name in CONDITION_NAMES:
        entries[name] = check_condition(problem, name, beta=beta,
                                        n1=entries.get("N1"))
    return ConditionReport(problem=problem, entries=entries)

"""Shooting searches for symmetric periodic orbits.

Each family is a recipe: a seed locus (the brake set S(-pi/2) on the line
theta = -pi/2, or the zero-velocity curve Z), a prescribed sequence of
line crossings at multiples of pi/2, and a terminal condition whose
residual changes sign across the sought orbit:

    B(k)          S seed, k re-crossings of the seed line, orthogonal hit
                  on the first line reached after them (v = 0 there);
    LessSymB(i,j) S seed, half-period segment ending orthogonally on a
                  partial-collision line, pattern depends on parity of i;
    Z1(k)         Z seed, k partial-collision crossings, orthogonal hit on
                  the central-configuration line theta = 0;
    ZB(i,j)       Z seed, i crossings west, return east, (j+1)th crossing
                  of theta = +pi/2 orthogonal;
    Z5(i,j)       Z seed, prescribed crossings, then a brake (v = 0) off
                  every line; the residual is w at the brake.

The experimental family PP reuses the same machinery; its results are
reported but nothing about them is asserted.

A found fundamental segment is reconstructed to a full period with the
reversing reflections sigma_line (about a line) and R1 (about a brake):
quarter segments mirror twice or mirror-then-retrace, half segments
mirror or retrace once.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
import math
import numbers

import numpy as np
from scipy.optimize import brentq

from . import dynamics as dyn
from .dynamics import State
from .errors import AmbiguousBracketError, DomainError, OrbitNotFoundError
from .odeint import (_EVENT_TOL, Controls, EventSpec, Trajectory, field_for,
                     integrate, integrate_block)
from .problems import ProblemSpec

LOCUS_S = "S(-pi/2)"
LOCUS_Z = "Z"

FAMILY_NAMES = ("B", "LessSymB", "ZB", "Z1", "Z5", "PP")

RESIDUAL_TOL = 1e-8
R_ESCAPE = 1e3
SHOT_MAX_S = 200.0  # rescaled-time limit of one shot unless controls say
_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class FamilySpec:
    """A family name with its indices.

    B(k) and Z1(k) use i = k >= 0; LessSymB, ZB, Z5 and the experimental
    PP need i >= 1 and j >= 1.
    """

    family: str
    i: int = None
    j: int = None

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise DomainError("unknown family %r" % (self.family,))
        for index in (self.i, self.j):
            if index is not None and not isinstance(index, numbers.Integral):
                raise DomainError("family indices are integers, got %r"
                                  % (index,))
        if self.family in ("B", "Z1"):
            if self.i is None or self.i < 0 or self.j is not None:
                raise DomainError("%s takes one index k >= 0" % (self.family,))
        else:
            if self.i is None or self.j is None or self.i < 1 or self.j < 1:
                raise DomainError(
                    "%s needs a pair of positive indices" % (self.family,))

    def __str__(self):
        if self.family in ("B", "Z1"):
            return "%s(%d)" % (self.family, self.i)
        return "%s(%d,%d)" % (self.family, self.i, self.j)


@dataclass
class PeriodicOrbit:
    """A found orbit.  Its sampled fundamental segment and the full period
    reconstructed from it are flown on first read: `flight` holds the
    problem, the family's recipe and the controls of that flight.  The
    recipe says what the flight watches and how reconstruct_full closes
    the segment; verify_periodicity reuses the problem, rtol and atol."""

    family: FamilySpec
    seed: State
    seed_parameter: float
    quarter_or_half: str
    residual: float
    full_period_s: float
    flight: tuple
    notes: dict = field(default_factory=dict)
    # the root's evidence of convergence: the last sign-change bracket of
    # the Brent search, ((param, residual), (param, residual)) with
    # seed_parameter at one end; the noise floor of the root shot's
    # residual; and the shots the Brent search took
    bracket: tuple = None
    residual_floor: float = None
    root_shots: int = None

    @cached_property
    def fundamental(self) -> Trajectory:
        """The fundamental segment from the seed, sampled at 1/512 of it."""
        problem, recipe, controls = self.flight
        return _fly(problem, self.seed, recipe, controls)

    @cached_property
    def reconstructed(self) -> Trajectory:
        """The full period, reconstructed from the fundamental segment."""
        return reconstruct_full(self)


def line_kind(m: int) -> str:
    """Even multiples of pi/2 carry central (Euler-type) configurations,
    odd multiples the regularized partial collisions."""
    return "euler" if m % 2 == 0 else "partial"


# -- seeds ---------------------------------------------------------------------


def seed_state(problem: ProblemSpec, locus: str, param: float) -> State:
    """A brake seed: on S(-pi/2) param is the size r, on Z the angle."""
    if locus == LOCUS_S:
        if not param > 0.0:
            raise DomainError("S locus needs r > 0, got %r" % (param,))
        wc, _ = dyn.curly_w(problem, -_HALF_PI)
        c = dyn.chart_eval(problem, -_HALF_PI)[2]
        return State(float(param), 0.0, -_HALF_PI, math.sqrt(2.0 * wc / c))
    if locus == LOCUS_Z:
        if math.cos(param) ** 2 < 1e-18:
            raise DomainError(
                "Z locus is unbounded at odd multiples of pi/2")
        r = float(dyn.v_of_theta(problem, param))
        return State(r, 0.0, float(param), 0.0)
    raise DomainError("unknown locus %r" % (locus,))


# -- family recipes ------------------------------------------------------------


@dataclass(frozen=True)
class _Recipe:
    """How a family is sought.  closure names the reversing reflections
    that close the fundamental segment into a full period: a segment
    closed by two of them is a quarter of the period, by one a half."""

    locus: str
    lines: tuple  # prescribed crossings (as m integers) before the terminal
    terminal: str  # "line" | "brake"
    terminal_m: int
    closure: str  # "mirror-mirror" | "mirror-retrace" | "mirror" | "retrace"
    # rtol, atol and max_s of the shots; rtol and atol also of the
    # reconstruction (default rtol 1e-11, atol 1e-12, max_s SHOT_MAX_S)
    controls: Controls = field(
        default_factory=lambda: Controls(max_s=SHOT_MAX_S))

    @property
    def segment(self) -> str:
        """"quarter" | "half"."""
        return "quarter" if "-" in self.closure else "half"


def _recipe_for(spec: FamilySpec) -> _Recipe:
    f, i, j = spec.family, spec.i, spec.j
    if f == "B":
        return _Recipe(LOCUS_S, (-1,) * i, "line", 0 if i % 2 == 0 else -2,
                       "mirror-mirror")
    if f == "Z1":
        return _Recipe(LOCUS_Z, (-1,) * i, "line", 0, "mirror-retrace")
    if f == "ZB":
        return _Recipe(LOCUS_Z, (-1,) * i + (0,) + (1,) * j, "line", 1,
                       "mirror-retrace")
    if f == "LessSymB":
        if i % 2 == 0:
            return _Recipe(LOCUS_S, (-1,) * i + (0,) + (1,) * j, "line", 1,
                           "mirror")
        return _Recipe(LOCUS_S, (-1,) * i + (-2,) + (-3,) * j, "line", -3,
                       "mirror")
    if f == "Z5":
        return _Recipe(LOCUS_Z, (-1,) * i + (0,) + (1,) * j, "brake", 0,
                       "retrace")
    # PP
    return _Recipe(LOCUS_S, (-1,) * (i - 1) + (0,) * j, "line", 1, "mirror")


def prescribed_signature(spec: FamilySpec) -> tuple:
    """Crossing pattern of the fundamental segment, as readable labels."""
    rec = _recipe_for(spec)
    out = ["%s(%d)" % (line_kind(m), m) for m in rec.lines]
    if rec.terminal == "line":
        out.append("%s(%d)" % (line_kind(rec.terminal_m), rec.terminal_m))
    else:
        out.append("brake")
    return tuple(out)


# -- single shots --------------------------------------------------------------


def _line_of(angle: float) -> int:
    """Index m of the nearest line theta = m pi/2."""
    return int(round(angle / _HALF_PI))


def _full_lines(recipe: _Recipe) -> tuple:
    """The prescribed crossings, with the terminal line if there is one."""
    if recipe.terminal == "line":
        return recipe.lines + (recipe.terminal_m,)
    return recipe.lines


def _fly(problem, seeds, recipe: _Recipe, controls: Controls):
    """Integrate one shot from a seed State, or the shots from a list of
    seeds through integrate_block, watching what _classify reads: every
    line within three of the recipe's full lines and of theta = 0, the v
    zeros when the recipe ends in a brake, and escape.  Returns the
    Trajectory, or the list of them."""
    ms = _full_lines(recipe) + (0,)
    events = [EventSpec.angle(m * _HALF_PI)
              for m in range(min(ms) - 3, max(ms) + 4)]
    if recipe.terminal == "brake":
        events.append(EventSpec.v_zero())
    events.append(EventSpec.r_exceeds(R_ESCAPE))
    rhs = field_for(problem)
    if isinstance(seeds, State):
        return integrate(rhs, seeds, events, controls)
    return integrate_block(rhs, seeds, events, controls)


def _line_hits(traj: Trajectory) -> list:
    """(s, m) of every line crossing of a shot."""
    return [(h.s, _line_of(h.state.angle))
            for h in traj.events if h.kind == "angle-crossing"]


def _fate(traj: Trajectory):
    """"collision-asymptotic" | "escape" | None."""
    if traj.termination == "step-failure":
        return "collision-asymptotic"
    if traj.events and traj.events[-1].kind == "r-exceeds":
        return "escape"
    return None


@dataclass
class _ShotRecord:
    param: float
    classification: str  # matched | pattern-mismatch | escape |
    #                      collision-asymptotic | no-terminal | brake-on-line
    lines: tuple
    residual: float
    terminal_s: float
    terminal_state: State = None  # where the residual is read, when matched
    floor: float = None  # the residual's noise floor, set by _shot


def _shot_controls(recipe: _Recipe) -> Controls:
    """The recipe's controls, capped at the crossings a classification
    reads: the full pattern, plus one past a brake terminal."""
    cap = len(_full_lines(recipe)) + (recipe.terminal == "brake")
    return replace(recipe.controls, sample_ds=None, max_angle_crossings=cap)


def _floor(problem, recipe: _Recipe, state: State) -> float:
    """The noise floor of a matched shot's residual (v at a line hit, w at
    a brake), read at the located terminal event `state`: the event's s is
    known to _EVENT_TOL, so the residual to _EVENT_TOL |d residual / ds|."""
    dy = dyn.newcoords_rhs(problem, state)
    return _EVENT_TOL * abs(dy[1 if recipe.terminal == "line" else 3])


def _classify(recipe: _Recipe, param: float, traj: Trajectory) -> _ShotRecord:
    """Classify a shot from the seed at param against the recipe's
    crossing pattern and terminal, with its residual when it matches."""
    full = _full_lines(recipe)
    cross = _line_hits(traj)
    fate = _fate(traj)
    ms = tuple(m for _, m in cross)
    rec = _ShotRecord(param=param, classification=fate or "no-terminal",
                      lines=ms, residual=None, terminal_s=traj.end_s)
    if fate:
        return rec

    if recipe.terminal == "line":
        if ms == full and traj.termination == "crossing-cap":
            rec.classification = "matched"
            rec.residual = traj.end_state.v
            rec.terminal_state = traj.end_state
        elif ms[:len(full)] != full[:len(ms)]:
            rec.classification = "pattern-mismatch"
        return rec

    # brake terminal: the prescribed crossings, then v = 0 strictly before
    # any further line
    k = len(recipe.lines)
    if ms[:k] != recipe.lines[:len(ms)]:
        rec.classification = "pattern-mismatch"
        return rec
    if len(ms) < k:
        return rec
    s_done = cross[k - 1][0] if k else 0.0
    s_next = cross[k][0] if len(cross) > k else math.inf
    vhits = [h for h in traj.events
             if h.kind == "v-zero" and s_done < h.s < s_next]
    if not vhits:
        return rec
    hit = vhits[0]
    if abs(hit.state.angle - _line_of(hit.state.angle) * _HALF_PI) < 1e-6:
        # a brake on a line belongs to the Z1/ZB searches, not here
        rec.classification = "brake-on-line"
        return rec
    rec.classification = "matched"
    rec.residual = hit.state.w
    rec.terminal_state = hit.state
    rec.terminal_s = hit.s
    return rec


def _shot(problem, recipe: _Recipe, param: float) -> _ShotRecord:
    """A single classified shot, with its residual's noise floor when it
    matches; the scan's rows never need the floor."""
    seed = seed_state(problem, recipe.locus, param)
    rec = _classify(recipe, param,
                    _fly(problem, seed, recipe, _shot_controls(recipe)))
    if rec.classification == "matched":
        rec.floor = _floor(problem, recipe, rec.terminal_state)
    return rec


def _scan(problem, recipe: _Recipe, params) -> list:
    """The scan-table rows (param, classification, lines, residual) of the
    seeds at params, flown through integrate_block: one lockstep block
    from _SCALAR_BELOW seeds up, one scalar shot per seed below that."""
    seeds = [seed_state(problem, recipe.locus, p) for p in params]
    trajs = _fly(problem, seeds, recipe, _shot_controls(recipe))
    rows = [_classify(recipe, p, t) for p, t in zip(params, trajs)]
    return [(r.param, r.classification, r.lines, r.residual) for r in rows]


# -- search --------------------------------------------------------------------


def _default_search(problem, recipe) -> dict:
    if recipe.locus == LOCUS_S:
        return {"param_lo": 1e-3, "param_hi": 1e2, "grid_points": 400}
    ts = dyn.theta_star(problem)
    return {"param_lo": ts - math.pi + 1e-3, "param_hi": -1e-3,
            "grid_points": 400}


def _grid(recipe, lo, hi, n):
    if recipe.locus == LOCUS_S:
        pts = np.geomspace(lo, hi, n)
    else:
        pts = np.linspace(lo, hi, n)
        # the zero-velocity curve blows up on the partial-collision lines
        keep = np.abs(np.cos(pts)) > 2e-3
        pts = pts[keep]
    return pts


def _brackets(rows) -> list:
    """Neighbouring matched scan rows whose residuals differ in sign."""
    return [(a, b) for a, b in zip(rows, rows[1:])
            if a[1] == b[1] == "matched" and a[3] * b[3] < 0.0]


class _AtFloor(Exception):
    """Stops brentq at a shot whose residual is within its noise floor."""


def _refine(problem, recipe, a, b):
    """Brent's method on the terminal residual between the scan rows a and
    b, stopped at the first shot whose |residual| is at or below its noise
    floor, _EVENT_TOL |d residual / ds| at the terminal event.  Brent's
    method keeps opposite-signed ends around its iterate at every step
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4),
    so that shot is the root; further shots would only flip the residual's
    sign.  The residual callback stops the search, rather than an xtol
    from the bracket's secant slope, because each shot knows its own floor
    exactly.  xtol=1e-15 stays as a backstop, after which the shot with
    the smallest residual is the root.

    Returns (root shot, bracket, shots): the bracket is the tightest pair
    of evaluated parameters with opposite-signed residuals that has the
    root at one end, ((param, residual), (param, residual)) in increasing
    param; shots counts the Brent search's shots.  Raises
    AmbiguousBracketError if a shot inside stops matching or none comes
    within RESIDUAL_TOL.
    """
    seen = {a[0]: a[3], b[0]: b[3]}
    shots = []

    def residual(param):
        if param in seen:
            return seen[param]
        rec = _shot(problem, recipe, param)
        if rec.classification != "matched":
            raise AmbiguousBracketError(
                "signature %r at parameter %.17g inside the bracket"
                % (rec.classification, param))
        shots.append(rec)
        seen[param] = rec.residual
        if abs(rec.residual) <= rec.floor:
            raise _AtFloor
        return rec.residual

    try:
        brentq(residual, a[0], b[0], xtol=1e-15, disp=False)
        root = min(shots, key=lambda rec: abs(rec.residual), default=None)
    except _AtFloor:
        root = shots[-1]
    if root is None or abs(root.residual) > RESIDUAL_TOL:
        raise AmbiguousBracketError(
            "bracket [%r, %r] exhausted: no shot's residual within %g"
            % (a[0], b[0], RESIDUAL_TOL))
    other = min((p for p, f in seen.items()
                 if p != root.param and f * root.residual <= 0.0),
                key=lambda p: abs(p - root.param))
    bracket = tuple(sorted([(root.param, root.residual),
                            (other, seen[other])]))
    return root, bracket, len(shots)


def _root_in(problem, recipe, a, b):
    """_refine on the bracket of scan rows a and b; if that bracket is
    ambiguous, scan it once more with the locus midpoint added and refine
    its first clean sub-bracket."""
    try:
        return _refine(problem, recipe, a, b)
    except AmbiguousBracketError:
        mids = _scan(problem, recipe,
                     [float(p) for p in _grid(recipe, a[0], b[0], 3)[1:-1]])
        sub = _brackets([a] + mids + [b])
        if not sub:
            raise
        return _refine(problem, recipe, *sub[0])


def _reconstruct_and_wrap(problem, spec, recipe, rec, bracket,
                          shots) -> PeriodicOrbit:
    tau = rec.terminal_s
    ctl = recipe.controls
    period = 4.0 * tau if recipe.segment == "quarter" else 2.0 * tau
    orbit = PeriodicOrbit(
        family=spec, seed=seed_state(problem, recipe.locus, rec.param),
        seed_parameter=rec.param, quarter_or_half=recipe.segment,
        residual=abs(rec.residual), full_period_s=period,
        flight=(problem, recipe, Controls(
            rtol=ctl.rtol, atol=ctl.atol, max_s=tau, sample_ds=tau / 512.0)),
        bracket=bracket, residual_floor=rec.floor, root_shots=shots)
    if spec.family == "PP":
        # reported, never asserted: an orthogonal central-line crossing
        # means the segment is half of a B-family orbit; the only notes
        # that need the segment flown here
        vals = [abs(h.state.v) for h in orbit.fundamental.events
                if h.kind == "angle-crossing"
                and _line_of(h.state.angle) % 2 == 0]
        closest = min(vals) if vals else math.inf
        orbit.notes["euler_crossing_min_abs_v"] = closest
        orbit.notes["coincides_with_B"] = bool(closest < 1e-6)
    return orbit


def find_orbit(problem: ProblemSpec, family: FamilySpec, search: dict = None,
               controls: Controls = None) -> PeriodicOrbit:
    """Scan the seed parameter, bracket the sign change of the terminal
    residual under the family's prescribed signature, and refine the first
    bracket by Brent's method down to the residual's noise floor (see
    _refine).

    The scan flies its seeds in one lockstep block from _SCALAR_BELOW (11)
    seeds up, and below that as one scalar shot each, the same shots root
    refinement flies; the orbit's sampled fundamental segment is one more
    scalar run, flown on first read of PeriodicOrbit.fundamental or
    .reconstructed.  controls sets rtol and atol of every integration and
    max_s of the shots (default: rtol 1e-11, atol 1e-12, max_s
    SHOT_MAX_S); the segment runs to the found terminal's s.

    Returns the orbit of the first bracket.  Raises DomainError for an
    empty or unbounded search window, a non-positive S-locus size or fewer
    than two grid points, OrbitNotFoundError (carrying the scan table) when
    no bracket matches, and its subclass AmbiguousBracketError (carrying
    the scan table too) when the bracket gives no root even after one
    local re-scan.
    """
    recipe = _recipe_for(family)
    if controls is not None:
        recipe = replace(recipe, controls=controls)
    cfg = dict(_default_search(problem, recipe))
    if search:
        cfg.update(search)
    lo, hi, n = cfg["param_lo"], cfg["param_hi"], int(cfg["grid_points"])
    if (not -math.inf < lo < hi < math.inf
            or (recipe.locus == LOCUS_S and not lo > 0.0)):
        raise DomainError("search window [%r, %r] needs finite param_lo <"
                          " param_hi (and param_lo > 0 on %s)"
                          % (lo, hi, LOCUS_S))
    if n < 2:
        raise DomainError("search window needs at least 2 grid points to"
                          " bracket a root, got %d" % (n,))
    params = [float(p) for p in _grid(recipe, lo, hi, n)]
    rows = _scan(problem, recipe, params)

    brackets = _brackets(rows)
    if not brackets:
        raise OrbitNotFoundError(
            "no %s bracket for %s in [%g, %g] over %d seeds"
            % (family, problem.kind, lo, hi, len(params)), scan=rows)

    try:
        root = _root_in(problem, recipe, *brackets[0])
    except AmbiguousBracketError as err:
        err.scan = rows
        raise
    return _reconstruct_and_wrap(problem, family, recipe, *root)


# -- reconstruction and verification -------------------------------------------


def _extend(s, y, closure):
    """The segment (s, y) followed by its image under one reversing
    reflection, traversed back from the segment's end: sigma_line about
    the end line for "mirror", R1 for "retrace"."""
    back = y[:, -2::-1]
    if closure == "mirror":
        image = dyn.sigma_line(_line_of(y[2, -1]) * _HALF_PI, back)[0]
    else:
        image = dyn.apply_symmetry("R1", back)[0]
    return (np.concatenate([s, 2.0 * s[-1] - s[-2::-1]]),
            np.concatenate([y, image], axis=1))


def reconstruct_full(orbit: PeriodicOrbit) -> Trajectory:
    """Assemble the full period from the fundamental segment.

    Quarter segments of brake families mirror about the terminal line and
    then about the new end line; Z-seeded quarters mirror then retrace
    under R1; half segments need a single mirror (S-seeded) or retrace
    (brake-to-brake).  The endpoint returns to the seed exactly for the
    retraced families and to the seed shifted by a full cover turn
    (theta +- 2 pi) for the mirrored ones.
    """
    fund = orbit.fundamental
    s, y = fund.s, fund.y
    _, recipe, _ = orbit.flight
    for closure in recipe.closure.split("-"):
        s, y = _extend(s, y, closure)
    return Trajectory(s, y, [], "reconstructed", fund.seed)


def verify_periodicity(orbit: PeriodicOrbit) -> dict:
    """Re-integrate the seed over one full period in a single pass, on the
    problem and at the rtol and atol of the search that found the orbit
    (its flight).

    closure_error is the largest coordinate gap to the seed, with theta
    compared modulo the 2 pi cover period; energy_drift is the largest
    energy residual over the run's samples, taken as one array.
    """
    problem, _, ctl = orbit.flight
    period = orbit.full_period_s
    ctl = Controls(rtol=ctl.rtol, atol=ctl.atol, max_s=period,
                   sample_ds=period / 1024.0)
    traj = integrate(field_for(problem), orbit.seed, (), ctl)
    end, seed = traj.end_state, orbit.seed
    dth = abs(end.angle - seed.angle)
    dth = abs(dth - 2.0 * math.pi * round(dth / (2.0 * math.pi)))
    closure = max(abs(end.r - seed.r), abs(end.v - seed.v),
                  abs(end.w - seed.w), dth)
    drift = float(np.max(np.abs(dyn.energy_gradient(problem, traj.y)[0])))
    return {"closure_error": closure, "energy_drift": drift}

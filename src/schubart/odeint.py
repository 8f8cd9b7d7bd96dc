"""Adaptive Dormand-Prince 8(5,3) (DOP853) integration with dense output
and events.

The coefficients are those of scipy.integrate.DOP853.  The stepping is
written here so that event localization is reproducible bit-for-bit:
events are bracketed by sign changes of the event function across each
accepted step and located by safeguarded Newton steps on the step's
7th-order interpolant (Shampine & Thompson, Comput. Math. Appl. 39, 2000)
until a Newton correction or the sign bracket is narrower than
_EVENT_TOL in rescaled time.  The interpolant costs three more field
evaluations, made only on steps that have a sign change or a dense
sample.

`integrate` runs one seed, a State or a flat array, and records its
samples as the columns of a (4, k) array ((d, k) for a flat seed of
length d).  Its step is straight-line code on Python floats, generated
from the tableau for each state length d on first use: one expression
per stage and component over the tableau's nonzero coefficients, summed
left to right.  The rest of its loop is on Python floats too: its start
(_first_step), its event tests (_crossings), each event's location
(_locate, one pair at a time), and its event states and samples (_point,
one _interpolate per component).  So no numpy runs between the field
calls, which are most of a step's cost.  rhs gets the state as a tuple of
d floats and may return any length-d sequence.
`integrate_block` runs a family of seeds in lockstep as the columns of a
(4, N) block, each lane with its own step size, controller memory,
events and termination, and records only where each lane started and
ended; its stages are matmuls with the stage store.  It starts with
_initial_step and tests for sign changes on arrays with _Watch; each
crossed lane's events are then located and recorded by the scalar run's
float code (_events: _locate and _point), one lane at a time.  Both paths
take the controller (_shrink, _grow, _underflow), _event_poly,
_interpolate and _events, and return the same Trajectory.  Each float
helper repeats its array form's operations in the same order, so a scalar
run's start (on states of fewer than 8 components, where numpy also sums
left to right), event tests, states and samples have the bits of the
array forms.  The two steps sum the stages in different orders, so a
scalar run and its block lane agree to rounding, not bit for bit.  The
block's per-step numpy overhead pays off only on wide blocks: below
_SCALAR_BELOW (11) seeds `integrate_block` flies each seed as its own
`integrate` run, so the lanes of a small block are exactly their scalar
runs.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np
from scipy.integrate import DOP853 as _DOP853

from .dynamics import State, newcoords_rhs
from .errors import DomainError, EvaluationError

# DOP853: the 8th-order pair of Dormand and Prince with its 5th- and
# 3rd-order error estimates and 7th-order continuous extension (Hairer,
# Norsett & Wanner, Solving ODEs I, II.5-II.6), with the coefficients of
# scipy.integrate.DOP853.  Row 12 of _A holds the weights B of the solution,
# so stage 12 is the field at the new state and starts the next step
# (FSAL); rows 13-15 are the extra stages of the dense output.
_A = np.zeros((16, 16))
_A[:12, :12] = _DOP853.A
_A[12, :12] = _DOP853.B
_A[13:] = _DOP853.A_EXTRA
_B = _A[12, :12]
_C = np.concatenate([_DOP853.C, [1.0], _DOP853.C_EXTRA])
# the 5th- and 3rd-order error estimates, weights of stages 0..12
_E = np.array([_DOP853.E5, _DOP853.E3])
# the 7th-order dense output: with x the step fraction and F_i = h G_i . k,
# y(x) = y0 + F0 x + F1 x(1-x) + F2 x^2(1-x) + F3 x^2(1-x)^2 + ...
#        + F6 x^4(1-x)^3, and F3..F6 taken from the 16 stages by D
_G = np.zeros((7, 16))
_G[0, :12] = _B
_G[1, :12] = -_B
_G[1, 0] += 1.0
_G[2, :12] = 2.0 * _B
_G[2, 0] -= 1.0
_G[2, 12] -= 1.0
_G[3:] = _DOP853.D
# the rows of _A as contiguous arrays and the nodes as floats, so that a
# block stage costs one matmul with the flat stage store and one update of
# y; the generated scalar step reads its coefficients from the same rows
_ROWS = [_A[i, :i].copy() for i in range(16)]
_NODES = [float(c) for c in _C]

# accepted-or-rejected step budget of one integrate call
_MAX_STEPS = 200000

# an event's location stops when its last Newton correction, or its sign
# bracket, is at most this wide in s; a located event is known to this
# tolerance
_EVENT_TOL = 1e-13

# below this many live lanes the block field is evaluated column by column.
# One (4, N) block call costs as much as the N flat calls of the column loop
# at N = 9-10 on pyramidal n=2 and spatial n=3 and at N = 8 on planar n=10
# (2-vCPU Xeon, Python 3.11, numpy 2.4).  A flat call gives the bits of a
# block column, so the switch changes the cost of a step, not its values
_COLUMNWISE_BELOW = 8

# below this many seeds integrate_block flies each seed as its own integrate
# run.  The time of one integrate run per seed over the block's time, for
# the same orbit scan on pyramidal n=2, spatial n=3 and planar n=10:
# 0.55-0.86 at 9 seeds, 0.63-0.99 at 10 and 0.63-1.03 at 11.  Planar n=10
# crosses first, between 10 and 11; spatial n=3 crosses by 14 and
# pyramidal n=2 at about 16 (2-vCPU Xeon, Python 3.11, numpy 2.4).  A lane
# then is exactly its integrate run
_SCALAR_BELOW = 11

# the component of [r, v, angle, w] each event kind watches
_COMPONENT = {"angle-crossing": 2, "v-zero": 1, "w-zero": 3, "r-exceeds": 0}


@dataclass(frozen=True)
class EventSpec:
    """One monitored scalar condition along a trajectory.

    kind selects the watched component; level is the value it crosses:
    the target line for angle-crossing, the size for r-exceeds, 0 for the
    v and w zeros.  direction filters by the sign of the event function's
    derivative at the crossing (0 accepts both).  action "stop" truncates
    the trajectory.
    """

    kind: str
    action: str = "record"
    level: float = 0.0
    direction: int = 0

    @staticmethod
    def angle(theta, direction=0, action="record"):
        return EventSpec("angle-crossing", action, level=theta, direction=direction)

    @staticmethod
    def v_zero(action="record", direction=0):
        return EventSpec("v-zero", action, direction=direction)

    @staticmethod
    def w_zero(action="record", direction=0):
        return EventSpec("w-zero", action, direction=direction)

    @staticmethod
    def r_exceeds(threshold, action="stop"):
        return EventSpec("r-exceeds", action, level=threshold, direction=1)

    def _watched(self):
        """(component of [r, v, angle, w], level): the event function is
        y[component] - level."""
        if self.kind not in _COMPONENT:
            raise DomainError("unknown event kind %r" % (self.kind,))
        return _COMPONENT[self.kind], self.level


@dataclass
class EventHit:
    s: float
    spec: EventSpec
    state: State

    @property
    def kind(self) -> str:
        return self.spec.kind


@dataclass
class Trajectory:
    """Integration output: the sample positions s (k,) and the states there
    as the columns of y (d, k), [r, v, angle, w] for a State seed; the
    localized events; and how the run ended
    (event-stop | time-limit | step-failure | crossing-cap); the seed, a
    State or the flat array it was given as; the field evaluations the run
    took, its accepted steps and its rejected ones (a step with a
    non-finite stage counts as rejected).  For a State seed, iterating
    gives (s, State) pairs, each State built when it is read, and
    end_state the last one."""

    s: np.ndarray
    y: np.ndarray
    events: list
    termination: str
    seed: State
    nfev: int = 0
    n_accept: int = 0
    n_reject: int = 0

    @property
    def end_state(self) -> State:
        return State(*self.y[:, -1].tolist())

    @property
    def end_s(self) -> float:
        return float(self.s[-1])

    def __iter__(self):
        for t, col in zip(self.s, self.y.T):
            yield float(t), State(*col.tolist())


@dataclass
class Controls:
    rtol: float = 1e-11
    atol: float = 1e-12
    max_s: float = 1e3
    sample_ds: float = None  # uniform dense sampling when set
    max_angle_crossings: int = None  # truncate at the Nth angle-crossing hit

    def __post_init__(self):
        for name in ("rtol", "atol", "max_s", "sample_ds"):
            value = getattr(self, name)
            if name == "sample_ds" and value is None:
                continue
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError("%s must be finite and greater than 0, got"
                                  " %r" % (name, value))
        cap = self.max_angle_crossings
        if cap is not None and (isinstance(cap, bool)
                                or not isinstance(cap, int) or cap < 1):
            raise DomainError("max_angle_crossings must be an int >= 1, got"
                              " %r" % (cap,))


def _rms_norm(x, scale):
    """Root-mean-square of x / scale over axis 0: a number for a flat
    vector, one per lane for a (4, N) block."""
    return np.sqrt(((x / scale) ** 2).sum(axis=0) / len(x))


def _initial_step(f, s0, y0, f0, rtol, atol, max_s):
    """Starting step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4),
    per lane of a (4, N) block."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0, scale)
    d1 = _rms_norm(f0, scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        f1 = f(s0 + h0, y0 + h0 * f0)
        d = np.maximum(d1, _rms_norm(f1 - f0, scale) / h0)
        h1 = np.where(d <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / d) ** 0.125)
    h = np.minimum(np.minimum(100.0 * h0, h1), max_s)
    return np.where(np.isfinite(f1).all(axis=0), h, np.minimum(h0, max_s))


def _rms(x, scale):
    """_rms_norm of one flat state on floats: the squares summed left to
    right, which is numpy's order below 8 components."""
    acc = 0.0
    for xi, si in zip(x, scale):
        t = xi / si
        acc += t * t
    return math.sqrt(acc / len(x))


def _first_step(rhs, y0, f0, rtol, atol, max_s):
    """_initial_step of a run from s = 0 at the flat state y0 on floats,
    with Python's pow: the same operations in the same order, so the same
    bits.  A nan h0 comes first in each min, where it wins as it does in
    numpy's."""
    scale = [atol + rtol * abs(c) for c in y0]
    d0, d1 = _rms(y0, scale), _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = rhs(h0, tuple(c + h0 * fc for c, fc in zip(y0, f0)))
    if not all(map(math.isfinite, f1)):
        return float(min(h0, max_s))
    d = max(d1, _rms([a - b for a, b in zip(f1, f0)], scale) / h0)
    h1 = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** 0.125
    return float(min(min(100.0 * h0, h1), max_s))


def _combine(weights, k):
    """sum_i weights[..., i] k[i] over the leading stage axis of k (its
    first weights.shape[-1] stages)."""
    n = weights.shape[-1]
    return (weights @ k[:n].reshape(n, -1)).reshape(weights.shape[:-1]
                                                    + k.shape[1:])


def _fill(f, s, y, h, k, stages):
    """Fill the given stages of the C-contiguous stage store k, each from
    the stages before it: one matmul of its row of _A with the flat
    (16, 4 N) view of k per stage."""
    kf = k.reshape(16, -1)
    for i in stages:
        k[i] = f(s + _NODES[i] * h,
                 y + h * (_ROWS[i] @ kf[:i]).reshape(y.shape))


def _stages(f, s, y, h, f0):
    """The stage slopes of a step of size h from (s, y): stages 0..12 filled
    (stage 12 is the field at the new state), room left for the three
    dense-output stages; and whether every stage was finite (per lane for a
    block).  All 12 stages are computed, so those after a non-finite one
    carry it on; such a step is discarded."""
    k = np.empty((16,) + y.shape)
    k[0] = f0
    _fill(f, s, y, h, k, range(1, 13))
    return k, np.isfinite(k[1:13]).all(axis=(0, 1))


def _error(h, k, y, y_new, ctl):
    """The DOP853 error norm of each lane of a block: the 5th-order
    estimate e5 damped by the 3rd-order e3, |h| |e5|^2 / sqrt((|e5|^2 +
    0.01 |e3|^2) n) in scaled RMS terms; 0 where e5 is, inf where not
    finite."""
    scale = ctl.atol + ctl.rtol * np.maximum(np.abs(y), np.abs(y_new))
    e5, e3 = ((_combine(_E, k) / scale) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * len(y))
    return np.fmin(np.where(e5 == 0.0, 0.0, err), np.inf)


def _shrink(err, maximum=np.maximum):
    """Step factor after a rejected step (err > 1); per lane, or a Python
    float with maximum=max."""
    return maximum(0.2, 0.9 * maximum(err, 1.0) ** -0.125)


def _grow(err, err_prev, maximum=np.maximum, minimum=np.minimum):
    """Step factor after an accepted step: the PI controller at the
    exponents of an order-8 step (0.7/8, 0.4/8), clipped to [0.2, 10] (the
    floor on err only keeps the power finite at err = 0, which gets the
    full 10); per lane, or a Python float with maximum=max, minimum=min."""
    factor = 0.9 * maximum(err, 1e-300) ** -0.0875 * err_prev**0.05
    return minimum(10.0, maximum(0.2, factor))


def _underflow(h, s, maximum=np.maximum):
    """Whether a retried step has shrunk below the resolution of s; per
    lane, or a Python float with maximum=max."""
    return h < 1e-14 * maximum(1.0, abs(s))


def _dense_coeffs(f, s, y, h, k):
    """Coefficients q (7, ...) of the 7th-order interpolant of an accepted
    step with stages k from _stages, per lane for a block: fills the three
    dense-output stages 13..15 of k (three field evaluations) and returns
    F / h of y(x) = y0 + F0 x + F1 x(1-x) + F2 x^2(1-x) + ... + F6
    x^4(1-x)^3.  A k that is not C-contiguous (a lane subset of a block's
    store) is copied first, and the copy is filled."""
    k = np.ascontiguousarray(k)
    _fill(f, s, y, h, k, range(13, 16))
    return _combine(_G, k)


@functools.cache
def _scalar_step(d):
    """The DOP853 step on a flat state of length d as straight-line code on
    Python floats, compiled on first use: (step, dense).

    step(rhs, s, y, h, f0, atol, rtol) takes y and f0 = rhs(s, y) as
    length-d sequences and returns None when a stage is not finite, else
    (k, y_new, err): the flat tuple of stages 0..12 (stage 12 is the field
    at y_new), y_new and the error norm of _error.  A non-finite y_new
    raises EvaluationError.  dense(rhs, s, y, h, k) fills the three
    dense-output stages and returns the 7 rows of F / h of _dense_coeffs.
    Each sum runs over the nonzero weights in stage order, each weight
    written exactly.
    """
    comps = range(d)

    def names(i):
        return ["k%d_%d" % (i, c) for c in comps]

    def dot(weights, c):
        # sum_j weights[j] k_j, component c
        return " + ".join("%r * k%d_%d" % (float(a), j, c)
                          for j, a in enumerate(weights) if a)

    def stage(i):
        # stage i: the field at y + h (_ROWS[i] . k)
        at = ", ".join("y%d + h * (%s)" % (c, dot(_ROWS[i], c))
                       for c in comps)
        return "    %s, = rhs(s + %r * h, (%s,))" % (", ".join(names(i)),
                                                    _NODES[i], at)

    def finite(values):
        # 0 x is 0 for a finite x and nan for any other
        return " + ".join("0.0 * " + x for x in values) + " == 0.0"

    state = ", ".join("y%d" % c for c in comps)
    new = ["n%d" % c for c in comps]
    stages = [k for i in range(13) for k in names(i)]
    step = ["def step(rhs, s, y, h, f0, atol, rtol):",
            "    %s, = y" % state,
            "    %s, = f0" % ", ".join(names(0))]
    step += [stage(i) for i in range(1, 12)]
    step += ["    n%d = y%d + h * (%s)" % (c, c, dot(_B, c)) for c in comps]
    step += ["    %s, = rhs(s + %r * h, (%s,))" % (
                 ", ".join(names(12)), _NODES[12], ", ".join(new)),
             "    if not %s:" % finite(stages[d:]),
             "        return None",
             "    if not %s:" % finite(new),
             "        raise EvaluationError('non-finite state at s=%.17g'"
             " % (s,))"]
    step += ["    c%d = atol + rtol * max(abs(y%d), abs(n%d))" % (c, c, c)
             for c in comps]
    for e, row in enumerate(_E):
        step += ["    t%d = (%s) / c%d" % (c, dot(row, c), c) for c in comps]
        step.append("    e%d = %s" % (e, " + ".join("t%d * t%d" % (c, c)
                                                    for c in comps)))
    step += ["    err = abs(h) * e0 / sqrt((e0 + 0.01 * e1) * %d) if e0 else"
             " 0.0" % d,
             "    return (%s,), (%s,), err if err <= inf else inf  # nan: inf"
             % (", ".join(stages), ", ".join(new))]

    dense = ["def dense(rhs, s, y, h, k):",
             "    %s, = y" % state,
             "    %s, = k" % ", ".join(stages)]
    dense += [stage(i) for i in range(13, 16)]
    dense.append("    return (%s,)" % ", ".join(
        "(%s,)" % ", ".join(dot(row, c) for c in comps) for row in _G))

    space = {"sqrt": math.sqrt, "inf": math.inf,
             "EvaluationError": EvaluationError}
    exec("\n".join(step + dense), space)
    return space["step"], space["dense"]


def _interpolate(y0, h, q, x):
    """The 7th-order interpolant of a step of size h from y0 at the step
    fraction x, nested (Horner) in x and 1 - x."""
    u = 1.0 - x
    acc = q[6]
    for qi, t in zip(q[5::-1], (x, u, x, u, x, u)):
        acc = qi + t * acc
    return y0 + h * x * acc


def _event_poly(g0, h, q, x):
    """An event function g on a step's interpolant at the step fraction x,
    and dg/dx: g = g0 + h x P(x) with P nested in x and 1 - x as in
    _interpolate (so g is bit for bit its value there), P' carried along
    the same Horner pass."""
    u = 1.0 - x
    acc, dacc = q[6], 0.0
    for qi, t, dt in zip(q[5::-1], (x, u, x, u, x, u),
                         (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)):
        dacc = t * dacc + dt * acc
        acc = qi + t * acc
    return g0 + h * x * acc, h * (acc + x * dacc)


def _point(y0, h, cols, x):
    """The interpolant of a scalar run's step at the step fraction x, one
    _interpolate per component on floats; cols holds each component's 7
    coefficients."""
    return [_interpolate(a, h, c, x) for a, c in zip(y0, cols)]


def _crossings(direction, g0, g1):
    """The indices of the events whose values g0, g1 (lists of floats)
    change sign across a scalar step: exactly the rule of _Watch.crossed."""
    if not any([a * b <= 0.0 for a, b in zip(g0, g1)]):
        return []
    return [i for i, (a, b, sense) in enumerate(zip(g0, g1, direction))
            if ((a < 0.0 and b > 0.0) or (a > 0.0 and b < 0.0)
                or (a != 0.0 and b == 0.0))
            and (sense == 0 or (b - a) * sense > 0.0)]


def _locate(s0, h, g0, q):
    """The s of one event's sign change on a step from s0 of size h: g0 is
    its value at the step start and q its component's 7 interpolant
    coefficients.

    A safeguarded Newton iteration on the degree-8 event polynomial in the
    step fraction x (rtsafe, Press et al., Numerical Recipes, 9.4), from
    the secant point of the polynomial's end values.  Every iterate narrows
    the sign bracket [lo, hi] (g has the sign of g0 at lo and not at hi); a
    bisection step replaces a Newton step that leaves the bracket, has g' =
    0 (an inf step), or is not under half the previous step.  It stops once
    its Newton correction, or its bracket, times h is at most _EVENT_TOL,
    so the s is within _EVENT_TOL of the interpolant's root."""
    lo, hi = 0.0, 1.0
    g1 = g0 + h * q[0]
    x = g0 / (g0 - g1) if g0 != g1 else 0.5
    if not 0.0 < x < 1.0:
        x = 0.5
    last = 1.0
    while True:
        g, dg = _event_poly(g0, h, q, x)
        if g0 * g > 0.0:
            lo = x
        else:
            hi = x
        step = 0.0 if g == 0.0 else g / dg if dg else math.inf
        newton = x - step
        close = abs(step) * h <= _EVENT_TOL
        if close:
            x_new = min(max(newton, lo), hi)
        elif lo < newton < hi and abs(step) <= 0.5 * last:
            x_new = newton
        else:
            x_new = 0.5 * (lo + hi)
        last = abs(x_new - x)
        x = x_new
        if close or not (hi - lo) * h > _EVENT_TOL:
            return s0 + h * x


class _Watch:
    """The event functions of a list of EventSpec, evaluated together over
    the lanes of a block."""

    def __init__(self, events):
        self.specs = list(events)
        self.watched = [sp._watched() for sp in self.specs]
        self.component = np.array([c for c, _ in self.watched], dtype=int)
        self.level = np.array([lv for _, lv in self.watched], dtype=float)
        self.direction = np.array([sp.direction for sp in self.specs])

    def values(self, y):
        """Event values (N, E) at a (4, N) block."""
        return np.asarray(y)[self.component].T - self.level

    def crossed(self, g0, g1):
        """The event functions that change sign across a step, in their
        direction (a landing on zero counts), or None when none does."""
        if not (g0 * g1 <= 0.0).any():  # no sign change anywhere
            return None
        change = (((g0 < 0.0) & (g1 > 0.0)) | ((g0 > 0.0) & (g1 < 0.0))
                  | ((g0 != 0.0) & (g1 == 0.0)))
        change &= (self.direction == 0) | ((g1 - g0) * self.direction > 0.0)
        return change if change.any() else None


def _events(specs, watched, crossed, s, h, y, g0, cols, hits, n_cross, cap):
    """Locate and record the events of one accepted step from s of size h
    at the flat state y: crossed holds the indices of the events that
    change sign across it, g0 every event's value at its start and cols
    each component's 7 interpolant coefficients.  Each event is its own
    _locate; the hits are appended in order of s, then of index, each with
    its state from _point, up to a stop event or the cap-th angle crossing.
    Returns the stop s (None to go on), the termination it means, and the
    crossing count."""
    for s_ev, i in sorted((_locate(s, h, g0[i], cols[watched[i][0]]), i)
                          for i in crossed):
        spec = specs[i]
        hits.append(EventHit(s_ev, spec,
                             State(*_point(y, h, cols, (s_ev - s) / h))))
        if spec.action == "stop":
            return s_ev, "event-stop", n_cross
        if cap is not None and spec.kind == "angle-crossing":
            n_cross += 1
            if n_cross >= cap:
                return s_ev, "crossing-cap", n_cross
    return None, None, n_cross


def integrate(rhs, seed, events=(), controls=None) -> Trajectory:
    """Integrate dy/ds = rhs(s, y) from s = 0 at the seed.

    The seed is a State, and rhs operates on its flat vector [r, v, angle,
    w]; or a flat (d,) array of any length d, which runs without events
    (DomainError if any are given).
    rhs gets the state as a tuple of d floats and returns any length-d
    sequence.  Events are localized on the dense interpolant of each
    accepted step, one (event, step) pair at a time and in order of s,
    then of the event's index; a stop event truncates.  With sample_ds
    set, the samples are the seed, the interpolant at every k sample_ds
    (k = 1, 2, ...) strictly before the run's end, and the end state;
    without it, the seed and every accepted step's end state.  Termination
    is "time-limit" when max_s (or the step budget) is reached,
    "step-failure" when the step size underflows, "crossing-cap" when
    max_angle_crossings angle events have fired, "event-stop" otherwise.
    Outside its seed and its result, the run makes no numpy call of its
    own: its steps, event tests, locations, event states and samples are
    on Python floats.
    """
    ctl = controls or Controls()
    atol, rtol = ctl.atol, ctl.rtol
    specs = list(events)
    if specs and not isinstance(seed, State):
        raise DomainError("events need a State seed; a flat seed runs"
                          " without events")
    # each event's (component, level) and direction, read once
    watched = [sp._watched() for sp in specs]
    direction = [sp.direction for sp in specs]
    y = tuple(map(float, seed))
    d = len(y)
    step, dense = _scalar_step(d)
    s = 0.0
    f0 = rhs(s, y)
    if not all(map(math.isfinite, f0)):
        raise EvaluationError("non-finite field at the seed state")

    # the sample positions, and the states there as rows
    s_out, y_out = [0.0], [y]
    hits = []
    # the index k of the next grid point k sample_ds
    k_sample = 1 if ctl.sample_ds else None

    h = _first_step(rhs, y, f0, rtol, atol, ctl.max_s)
    err_prev = 1e-4
    termination = "time-limit"
    n_cross = 0
    g_prev = [y[c] - level for c, level in watched]

    steps = n_accept = n_dense = 0
    while s < ctl.max_s:
        if steps >= _MAX_STEPS:
            termination = "time-limit"
            break
        steps += 1
        if s + h > ctl.max_s:
            h = ctl.max_s - s

        taken = step(rhs, s, y, h, f0, atol, rtol)
        if taken is None:
            # a non-finite stage: retry with a smaller step; persistent
            # failure means the run hit a non-regularized singularity
            h *= 0.25
            if _underflow(h, s, max):
                termination = "step-failure"
                break
            continue
        k, y_new, err = taken
        if err > 1.0:
            h *= _shrink(err, max)
            if _underflow(h, s, max):
                termination = "step-failure"
                break
            continue

        # accepted; the interpolant only for a sign change or a sample
        n_accept += 1
        s_new = s + h
        # grid points lie strictly before the step's end (and max_s), so
        # the run's last column is a step's own end state
        reach = min(s_new, ctl.max_s)
        stop_at = None
        crossed = []
        if specs:
            g_old, g_prev = g_prev, [y_new[c] - level for c, level in watched]
            crossed = _crossings(direction, g_old, g_prev)
        if crossed or (k_sample is not None
                       and k_sample * ctl.sample_ds < reach):
            # the 7 interpolant coefficients of each component
            cols = tuple(zip(*dense(rhs, s, y, h, k)))
            n_dense += 1
        if crossed:
            stop_at, stop_kind, n_cross = _events(
                specs, watched, crossed, s, h, y, g_old, cols, hits, n_cross,
                ctl.max_angle_crossings)

        if k_sample is not None:
            # the grid points of this step, short of a stop
            if stop_at is not None:
                reach = min(reach, stop_at)
            while k_sample * ctl.sample_ds < reach:
                t = k_sample * ctl.sample_ds
                s_out.append(t)
                y_out.append(_point(y, h, cols, (t - s) / h))
                k_sample += 1
        if stop_at is not None:
            s_out.append(stop_at)
            y_out.append(hits[-1].state)
            termination = stop_kind
            break
        if k_sample is None:
            s_out.append(s_new)
            y_out.append(y_new)

        h *= _grow(err, err_prev, max, min)
        s, y = s_new, y_new
        f0 = k[-d:]  # FSAL
        err_prev = max(err, 1e-10)
        if s >= ctl.max_s:
            termination = "time-limit"
            break

    if termination != "event-stop" and s_out[-1] < s:
        s_out.append(s)
        y_out.append(y)
    # the seed, the initial step's trial and the stages of every attempt
    nfev = 2 + 12 * steps + 3 * n_dense
    return Trajectory(np.array(s_out), np.array(y_out).T.copy(), hits,
                      termination, seed, nfev, n_accept, steps - n_accept)


def _columnwise(rhs):
    """rhs over a (4, N) block, as a (4, N) array: rhs takes the block's
    rows whole, or below _COLUMNWISE_BELOW lanes one column at a time as a
    list of floats."""
    def f(s, y):
        if y.shape[1] >= _COLUMNWISE_BELOW:
            return np.array(rhs(s, y))
        out = np.empty_like(y)
        for j in range(y.shape[1]):
            out[:, j] = rhs(s[j], y[:, j].tolist())
        return out
    return f


def integrate_block(rhs, seeds, events=(), controls=None) -> list:
    """Integrate one trajectory per seed, all in lockstep.

    The seeds are the columns of a (4, N) block that rhs takes whole, as
    its four rows, and returns as a tuple of rows (see _columnwise).
    Each lane runs the step, controller, budget and event rules of
    `integrate` on its own step size and retires on its own termination.
    Fewer than _SCALAR_BELOW seeds fly as one `integrate` run each
    instead, which costs less there, so each lane of such a call is
    exactly its seed's scalar run; rhs then also takes one flat state.
    Returns one Trajectory per seed, in order, holding its events and
    termination; its samples are the seed and the end state only.
    """
    ctl = controls or Controls()
    if ctl.sample_ds:
        raise DomainError("integrate_block records no dense samples")
    seeds = list(seeds)
    if len(seeds) < _SCALAR_BELOW:
        runs = [integrate(rhs, State(*seed), events, ctl) for seed in seeds]
        return [_lane(seed, run.end_s, run.y[:, -1], run.events,
                      run.termination, run.nfev, run.n_accept, run.n_reject)
                for seed, run in zip(seeds, runs)]
    watch = _Watch(events)
    f = _columnwise(rhs)
    lane = np.arange(len(seeds))
    y = np.array(seeds, dtype=float).T.reshape(4, -1)
    s = np.zeros(lane.size)
    f0 = f(s, y)
    if not np.all(np.isfinite(f0)):
        raise EvaluationError("non-finite field at a seed state")
    h = _initial_step(f, s, y, f0, ctl.rtol, ctl.atol, ctl.max_s)
    err_prev = np.full(lane.size, 1e-4)
    # attempted and accepted steps and interpolant fills, per seed
    steps, accepted, dense = np.zeros((3, lane.size), dtype=int)
    n_cross = np.zeros(lane.size, dtype=int)
    g_prev = watch.values(y)
    hits = [[] for _ in seeds]
    ends = [None] * len(seeds)  # (termination, s, [r, v, angle, w])

    while lane.size:
        steps[lane] += 1
        h = np.where(s + h > ctl.max_s, ctl.max_s - s, h)
        k, ok = _stages(f, s, y, h, f0)
        y_new = y + h * _combine(_B, k)
        bad = ok & ~np.isfinite(y_new).all(axis=0)
        if bad.any():
            raise EvaluationError("non-finite state at s=%.17g" % (s[bad][0],))
        err = _error(h, k, y, y_new, ctl)
        accept = ok & (err <= 1.0)
        accepted[lane[accept]] += 1
        stopped = np.zeros(lane.size, dtype=bool)

        if watch.specs:
            g_new = watch.values(y_new)
            crossed = watch.crossed(g_prev, g_new)
            # the interpolant on the accepted lanes with a sign change
            sub = (np.flatnonzero(accept & crossed.any(axis=1))
                   if crossed is not None else ())
            if len(sub):
                q = _dense_coeffs(f, s[sub], y[:, sub], h[sub], k[..., sub])
                dense[lane[sub]] += 1
                # each lane's events on floats, as integrate locates them
                for jq, j in enumerate(sub.tolist()):
                    i = lane[j]
                    stop_at, kind, n_cross[j] = _events(
                        watch.specs, watch.watched,
                        np.flatnonzero(crossed[j]).tolist(), s[j].item(),
                        h[j].item(), y[:, j].tolist(), g_prev[j].tolist(),
                        q[:, :, jq].T.tolist(), hits[i], n_cross[j],
                        ctl.max_angle_crossings)
                    if stop_at is not None:
                        ends[i] = (kind, stop_at, hits[i][-1].state)
                        stopped[j] = True
            g_prev = np.where(accept[:, None], g_new, g_prev)

        # failed evaluations retry at a quarter of the step, rejected steps
        # at the controller's factor
        advance = accept & ~stopped
        s_new = s + h
        h = np.where(accept, h * _grow(err, err_prev),
                     np.where(ok, h * _shrink(err), 0.25 * h))
        s = np.where(advance, s_new, s)
        y = np.where(advance, y_new, y)
        f0 = np.where(advance, k[12], f0)  # FSAL
        err_prev = np.where(advance, np.maximum(err, 1e-10), err_prev)

        failure = ~accept & _underflow(h, s)
        limit = ~stopped & ~failure & (
            (advance & (s >= ctl.max_s)) | (steps[lane] >= _MAX_STEPS))
        retired = stopped | failure | limit
        if retired.any():
            for j in np.flatnonzero(failure | limit):
                i = lane[j]
                ends[i] = ("step-failure" if failure[j] else "time-limit",
                           float(s[j]), y[:, j])
            keep = ~retired
            lane, s, h, err_prev, n_cross, g_prev = (a[keep] for a in (
                lane, s, h, err_prev, n_cross, g_prev))
            y, f0 = y[:, keep], f0[:, keep]

    nfev = 2 + 12 * steps + 3 * dense  # as in integrate
    return [_lane(seed, s_end, end, lane_hits, termination, *counts)
            for seed, lane_hits, (termination, s_end, end), *counts in zip(
                seeds, hits, ends, nfev.tolist(), accepted.tolist(),
                (steps - accepted).tolist())]


def _lane(seed, s_end, end, events, termination, *counts):
    """integrate_block's Trajectory of one seed: its samples are the seed
    and the end state at s_end, or the seed alone for a run that ends at
    s = 0."""
    k = 2 if s_end > 0.0 else 1
    return Trajectory(np.array([0.0, s_end])[:k],
                      np.column_stack([seed, end])[:, :k], events,
                      termination, seed, *counts)


def field_for(problem):
    """The field callable (s, y) over r, v, angle, w at h = -1 for a
    problem, taking and returning them as newcoords_rhs does."""
    return lambda s, y: newcoords_rhs(problem, y)


def integrate_collision_manifold(problem, seed: State, events=(),
                                 controls=None) -> Trajectory:
    """Integrate on the collision manifold r = 0.

    The size equation dr/ds = r v cos^2 is r times a finite factor, so it
    is exactly 0 at r = 0 and the run stays on the invariant set exactly.
    """
    if seed.r != 0.0:
        raise DomainError("collision-manifold seed must have r = 0")
    return integrate(field_for(problem), seed, events=events,
                     controls=controls)

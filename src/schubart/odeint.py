"""Adaptive Dormand-Prince 5(4) integration with dense output and events.

The integrator is deliberately self-contained so that event localization
is reproducible bit-for-bit: events are bracketed by sign changes of the
event function across each accepted step and refined by bisection on the
step's quartic interpolant until the bracket is narrower than 1e-13 in
rescaled time.

`integrate` runs one seed and records its samples; `integrate_block` runs
a family of seeds in lockstep as the columns of a (4, N) block, each lane
with its own step size, controller memory, events and termination, and
records only where each lane ended.  Both call the same step, controller
and event-location helpers.
"""

from dataclasses import dataclass
import itertools

import numpy as np

from .dynamics import DEVANEY, NEWCOORDS, State, devaney_rhs, newcoords_rhs
from .errors import DomainError, EvaluationError

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# difference between the 5th- and embedded 4th-order weights
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# standard 4th-order continuous extension of the pair
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
         -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
         87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
         -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
         701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883,
         -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

# accepted-or-rejected step budget of one integrate call
_MAX_STEPS = 200000

# below this many live lanes the block field is evaluated column by column:
# a numpy call on a (4, 1) block costs several flat-vector calls
_COLUMNWISE_BELOW = 8

# the component of [r, v, angle, w] each event kind watches
_COMPONENT = {"angle-crossing": 2, "v-zero": 1, "w-zero": 3, "r-exceeds": 0,
              "r-below": 0}
EVENT_KINDS = tuple(_COMPONENT)


@dataclass(frozen=True)
class EventSpec:
    """One monitored scalar condition along a trajectory.

    kind selects the event function; theta is the target line for
    angle-crossing, threshold the level for r-exceeds / r-below.
    direction filters by the sign of the event function's derivative at the
    crossing (0 accepts both).  action "stop" truncates the trajectory.
    """

    kind: str
    action: str = "record"
    theta: float = 0.0
    direction: int = 0
    threshold: float = 0.0

    @staticmethod
    def angle(theta, direction=0, action="record"):
        return EventSpec("angle-crossing", action, theta=theta, direction=direction)

    @staticmethod
    def v_zero(action="record", direction=0):
        return EventSpec("v-zero", action, direction=direction)

    @staticmethod
    def w_zero(action="record", direction=0):
        return EventSpec("w-zero", action, direction=direction)

    @staticmethod
    def r_exceeds(threshold, action="stop"):
        return EventSpec("r-exceeds", action, threshold=threshold, direction=1)

    @staticmethod
    def r_below(threshold, action="stop"):
        return EventSpec("r-below", action, threshold=threshold, direction=-1)

    def _watched(self):
        """(component of [r, v, angle, w], level): the event function is
        y[component] - level."""
        if self.kind not in _COMPONENT:
            raise DomainError("unknown event kind %r" % (self.kind,))
        if self.kind == "angle-crossing":
            return _COMPONENT[self.kind], self.theta
        if self.kind in ("r-exceeds", "r-below"):
            return _COMPONENT[self.kind], self.threshold
        return _COMPONENT[self.kind], 0.0


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
    """Integration output: accepted samples, localized events, and how the
    run ended (event-stop | time-limit | step-failure | crossing-cap)."""

    samples: list
    events: list
    termination: str

    @property
    def end_state(self) -> State:
        return self.samples[-1][1]

    @property
    def end_s(self) -> float:
        return self.samples[-1][0]

    def as_arrays(self):
        s = np.array([t for t, _ in self.samples])
        y = np.array([st.as_array() for _, st in self.samples])
        return s, y


@dataclass
class Controls:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_s: float = 1e3
    sample_ds: float = None  # uniform dense sampling when set
    max_angle_crossings: int = None  # truncate at the Nth angle-crossing hit


def _as_controls(controls) -> Controls:
    if controls is None:
        return Controls()
    if isinstance(controls, Controls):
        return controls
    return Controls(**controls)


def _rms_norm(x, scale):
    """Root-mean-square of x / scale over axis 0: a number for a flat
    vector, one per lane for a (4, N) block."""
    return np.sqrt(((x / scale) ** 2).sum(axis=0) / len(x))


def _initial_step(f, s0, y0, f0, rtol, atol, max_s):
    """Starting step size (Hairer, Norsett & Wanner, Solving ODEs I, II.4),
    per lane for a (4, N) block."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0, scale)
    d1 = _rms_norm(f0, scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        f1 = f(s0 + h0, y0 + h0 * f0)
        d = np.maximum(d1, _rms_norm(f1 - f0, scale) / h0)
        h1 = np.where(d <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / d) ** 0.2)
    h = np.minimum(np.minimum(100.0 * h0, h1), max_s)
    return np.where(np.isfinite(f1).all(axis=0), h, np.minimum(h0, max_s))


def _combine(weights, k):
    """sum_i weights[i] k[i] over the leading stage axis of k."""
    return (weights @ k.reshape(len(weights), -1)).reshape(k.shape[1:])


def _stages(f, s, y, h, f0):
    """The seven stage slopes of a step of size h from (s, y), and whether
    every stage was finite (per lane for a block).  Stops at the first
    non-finite stage of a flat state, or once every lane of a block has
    one."""
    k = np.empty((7,) + y.shape)
    flat = k.reshape(7, -1)
    k[0] = f0
    ok = True
    for i in range(1, 7):
        k[i] = f(s + _C[i] * h, y + h * (_A[i] @ flat[:i]).reshape(y.shape))
        finite = np.isfinite(k[i]).all(axis=0)
        if finite.ndim:
            ok = ok & finite
            if not ok.any():
                break
        else:
            ok = finite
            if not ok:
                break
    return k, ok


def _error(h, k, y, y_new, ctl):
    """Scaled RMS of the embedded error estimate; inf where not finite."""
    scale = ctl.atol + ctl.rtol * np.maximum(np.abs(y), np.abs(y_new))
    return np.fmin(_rms_norm(h * _combine(_E, k), scale), np.inf)


def _shrink(err):
    """Step factor after a rejected step (err > 1)."""
    return np.maximum(0.2, 0.9 * np.maximum(err, 1.0) ** -0.2)


def _grow(err, err_prev):
    """Step factor after an accepted step: the PI controller, clipped to
    [0.2, 10] (the floor on err only keeps the power finite at err = 0,
    which gets the full 10)."""
    factor = 0.9 * np.maximum(err, 1e-300) ** -0.14 * err_prev**0.08
    return np.minimum(10.0, np.maximum(0.2, factor))


def _underflow(h, s):
    """Whether a retried step has shrunk below the resolution of s."""
    return h < 1e-14 * np.maximum(1.0, np.abs(s))


def _dense_coeffs(k):
    """Coefficients q[p] of x^(p+1) in the quartic interpolant of a step,
    per lane for a block."""
    return (_P.T @ k.reshape(7, -1)).reshape((4,) + k.shape[1:])


def _interpolate(y0, h, q, x):
    """The quartic interpolant of a step of size h from y0 at the step
    fraction x."""
    return y0 + h * (q[0] * x + q[1] * (x * x) + q[2] * x**3 + q[3] * x**4)


class _Watch:
    """The event functions of a list of EventSpec, evaluated together."""

    def __init__(self, events):
        self.specs = list(events)
        watched = [sp._watched() for sp in self.specs]
        self.component = np.array([c for c, _ in watched], dtype=int)
        self.level = np.array([lv for _, lv in watched], dtype=float)
        self.direction = np.array([sp.direction for sp in self.specs])

    def values(self, y):
        """Event values at a flat state (E,), or (N, E) for a block."""
        return y[self.component].T - self.level

    def crossed(self, g0, g1):
        """The event functions that change sign across a step, in their
        direction (a landing on zero counts), or None when none does."""
        if not (g0 * g1 <= 0.0).any():  # no sign change anywhere
            return None
        change = (((g0 < 0.0) & (g1 > 0.0)) | ((g0 > 0.0) & (g1 < 0.0))
                  | ((g0 != 0.0) & (g1 == 0.0)))
        change &= (self.direction == 0) | ((g1 - g0) * self.direction > 0.0)
        return change if change.any() else None

    def locate(self, crossed, s0, h, y0, q, g0):
        """Bisect every (lane, event) sign change marked in crossed (N, E)
        on its lane's interpolant to |bracket| <= 1e-13, all pairs at once.
        Lanes are the last axis of s0, h (N,), y0 (4, N) and q (4, 4, N).
        Returns (lane, s, event index) triples ordered by lane, s, index."""
        lane, idx = np.nonzero(crossed)
        comp, level = self.component[idx], self.level[idx]
        s0, h, y0, q = s0[lane], h[lane], y0[comp, lane], q[:, comp, lane]
        a, b, ga = s0, s0 + h, g0[lane, idx]
        for _ in range(64):
            wide = b - a > 1e-13
            if not wide.any():
                break
            m = 0.5 * (a + b)
            gm = _interpolate(y0, h, q, (m - s0) / h) - level
            left = wide & (ga * gm <= 0.0)
            right = wide & ~left
            b = np.where(left, m, b)
            a, ga = np.where(right, m, a), np.where(right, gm, ga)
        s_ev = 0.5 * (a + b)
        return [(int(lane[i]), float(s_ev[i]), int(idx[i]))
                for i in np.lexsort((idx, s_ev, lane))]


def _record(specs, located, state_at, hits, n_cross, cap):
    """Append one lane's located (s, event index) hits of a step in order
    up to a stop event or the cap-th angle crossing.  Returns the stop s
    (None to go on), the termination it means, and the crossing count."""
    for s_ev, idx in located:
        spec = specs[idx]
        hits.append(EventHit(s_ev, spec, state_at(s_ev)))
        if spec.action == "stop":
            return s_ev, "event-stop", n_cross
        if cap is not None and spec.kind == "angle-crossing":
            n_cross += 1
            if n_cross >= cap:
                return s_ev, "crossing-cap", n_cross
    return None, None, n_cross


def integrate(rhs, seed: State, events=(), controls=None) -> Trajectory:
    """Integrate dy/ds = rhs(s, y) from the seed state.

    rhs operates on the flat vector [r, v, angle, w].  Events are localized
    on the dense interpolant of each accepted step; a stop event truncates.
    Termination is "time-limit" when max_s (or the step budget) is reached,
    "step-failure" when the step size underflows, "crossing-cap" when
    max_angle_crossings angle events have fired, "event-stop" otherwise.
    """
    ctl = _as_controls(controls)
    watch = _Watch(events)
    y = seed.as_array()
    s = 0.0
    f0 = np.asarray(rhs(s, y), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise EvaluationError("non-finite field at the seed state")

    samples = [(0.0, seed)]
    hits = []
    next_sample = ctl.sample_ds if ctl.sample_ds else None

    h = float(_initial_step(rhs, s, y, f0, ctl.rtol, ctl.atol, ctl.max_s))
    err_prev = 1e-4
    termination = "time-limit"
    n_cross = 0
    g_prev = watch.values(y)

    steps = 0
    while s < ctl.max_s:
        if steps >= _MAX_STEPS:
            termination = "time-limit"
            break
        steps += 1
        if s + h > ctl.max_s:
            h = ctl.max_s - s

        k, ok = _stages(rhs, s, y, h, f0)
        if not ok:
            # retry with a smaller step; persistent failure means the run
            # hit a non-regularized singularity
            h *= 0.25
            if _underflow(h, s):
                termination = "step-failure"
                break
            continue

        y_new = y + h * _combine(_B, k)
        if not np.all(np.isfinite(y_new)):
            raise EvaluationError("non-finite state at s=%.17g" % (s,))
        err = _error(h, k, y, y_new, ctl)
        if err > 1.0:
            h *= _shrink(err)
            if _underflow(h, s):
                termination = "step-failure"
                break
            continue

        # accepted
        s_new = s + h
        q = stop_at = None
        if watch.specs:
            g_new = watch.values(y_new)
            crossed = watch.crossed(g_prev, g_new)
            if crossed is not None:
                q = _dense_coeffs(k)
                located = watch.locate(crossed[None], np.array([s]),
                                       np.array([h]), y[:, None],
                                       q[..., None], g_prev[None])
                stop_at, stop_kind, n_cross = _record(
                    watch.specs, [(t, i) for _, t, i in located],
                    lambda t: seed.with_array(
                        _interpolate(y, h, q, (t - s) / h)),
                    hits, n_cross, ctl.max_angle_crossings)
            g_prev = g_new
        if next_sample is not None and q is None:
            q = _dense_coeffs(k)

        if stop_at is not None:
            if next_sample is not None:
                while next_sample < stop_at:
                    samples.append((next_sample, seed.with_array(
                        _interpolate(y, h, q, (next_sample - s) / h))))
                    next_sample += ctl.sample_ds
            samples.append((stop_at, hits[-1].state))
            termination = stop_kind
            break

        if next_sample is not None:
            while next_sample <= s_new:
                samples.append((next_sample, seed.with_array(
                    _interpolate(y, h, q, (next_sample - s) / h))))
                next_sample += ctl.sample_ds
        else:
            samples.append((s_new, seed.with_array(y_new)))

        h *= _grow(err, err_prev)
        s, y = s_new, y_new
        f0 = k[6]  # FSAL
        err_prev = max(err, 1e-10)
        if s >= ctl.max_s:
            termination = "time-limit"
            break

    if termination != "event-stop" and samples[-1][0] < s:
        samples.append((s, seed.with_array(y)))
    return Trajectory(samples=samples, events=hits, termination=termination)


def _columnwise(rhs):
    """rhs over a (4, N) block; below _COLUMNWISE_BELOW lanes it is called
    on one flat column at a time."""
    def f(s, y):
        if y.shape[1] >= _COLUMNWISE_BELOW:
            return rhs(s, y)
        out = np.empty_like(y)
        for j in range(y.shape[1]):
            out[:, j] = rhs(s[j], y[:, j])
        return out
    return f


def integrate_block(rhs, seeds, events=(), controls=None) -> list:
    """Integrate one trajectory per seed, all in lockstep.

    The seeds are the columns of a (4, N) block that rhs takes whole (and
    column by column once fewer than _COLUMNWISE_BELOW lanes are live).
    Each lane runs the step, controller, budget and event rules of
    `integrate` on its own step size and retires on its own termination.
    Returns one Trajectory per seed, in order, holding its events and
    termination; its samples are the seed and the end state only.
    """
    ctl = _as_controls(controls)
    if ctl.sample_ds:
        raise DomainError("integrate_block records no dense samples")
    watch = _Watch(events)
    seeds = list(seeds)
    f = _columnwise(rhs)
    lane = np.arange(len(seeds))
    y = np.array([st.as_array() for st in seeds]).T.reshape(4, -1)
    s = np.zeros(lane.size)
    f0 = f(s, y)
    if not np.all(np.isfinite(f0)):
        raise EvaluationError("non-finite field at a seed state")
    h = _initial_step(f, s, y, f0, ctl.rtol, ctl.atol, ctl.max_s)
    err_prev = np.full(lane.size, 1e-4)
    steps = np.zeros(lane.size, dtype=int)
    n_cross = np.zeros(lane.size, dtype=int)
    g_prev = watch.values(y)
    hits = [[] for _ in seeds]
    ends = [None] * len(seeds)  # (termination, s, State)

    while lane.size:
        steps += 1
        h = np.where(s + h > ctl.max_s, ctl.max_s - s, h)
        k, ok = _stages(f, s, y, h, f0)
        y_new = y + h * _combine(_B, k)
        bad = ok & ~np.isfinite(y_new).all(axis=0)
        if bad.any():
            raise EvaluationError("non-finite state at s=%.17g" % (s[bad][0],))
        err = _error(h, k, y, y_new, ctl)
        accept = ok & (err <= 1.0)
        stopped = np.zeros(lane.size, dtype=bool)

        if watch.specs:
            g_new = watch.values(y_new)
            crossed = watch.crossed(g_prev, g_new)
            if crossed is not None:
                crossed &= accept[:, None]
                q = _dense_coeffs(k)
                located = watch.locate(crossed, s, h, y, q, g_prev)
                for j, group in itertools.groupby(located, lambda t: t[0]):
                    i = lane[j]
                    stop_at, kind, n_cross[j] = _record(
                        watch.specs, [(t, e) for _, t, e in group],
                        lambda t: seeds[i].with_array(_interpolate(
                            y[:, j], h[j], q[:, :, j], (t - s[j]) / h[j])),
                        hits[i], n_cross[j], ctl.max_angle_crossings)
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
        f0 = np.where(advance, k[6], f0)  # FSAL
        err_prev = np.where(advance, np.maximum(err, 1e-10), err_prev)

        failure = ~accept & _underflow(h, s)
        limit = ~stopped & ~failure & (
            (advance & (s >= ctl.max_s)) | (steps >= _MAX_STEPS))
        retired = stopped | failure | limit
        if retired.any():
            for j in np.flatnonzero(failure | limit):
                i = lane[j]
                ends[i] = ("step-failure" if failure[j] else "time-limit",
                           float(s[j]), seeds[i].with_array(y[:, j]))
            keep = ~retired
            lane, s, h, err_prev, steps, n_cross, g_prev = (a[keep] for a in (
                lane, s, h, err_prev, steps, n_cross, g_prev))
            y, f0 = y[:, keep], f0[:, keep]

    out = []
    for seed, lane_hits, (termination, s_end, end) in zip(seeds, hits, ends):
        samples = [(0.0, seed)] + ([(s_end, end)] if s_end > 0.0 else [])
        out.append(Trajectory(samples=samples, events=lane_hits,
                              termination=termination))
    return out


def field_for(problem, chart: str):
    """The field callable (s, y) over the flat vector [r, v, angle, w] at
    h = -1 for a problem in the given chart."""
    if chart == NEWCOORDS:
        return lambda s, y: newcoords_rhs(problem, y)
    if chart == DEVANEY:
        return lambda s, y: devaney_rhs(problem, y)
    raise DomainError("unknown chart %r" % (chart,))


def integrate_collision_manifold(problem, seed: State, events=(),
                                 controls=None) -> Trajectory:
    """Integrate on the collision manifold r = 0.

    The size equation (dr/ds = r v cos^2 in newcoords) is r times a finite
    factor in both charts, so it is exactly 0 at r = 0 and the run stays on
    the invariant set exactly.
    """
    if seed.r != 0.0:
        raise DomainError("collision-manifold seed must have r = 0")
    return integrate(field_for(problem, seed.chart), seed, events=events,
                     controls=controls)

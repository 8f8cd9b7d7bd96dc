"""Adaptive Dormand-Prince 5(4) integration with dense output and events.

The integrator is deliberately self-contained so that event localization
is reproducible bit-for-bit: events are bracketed by sign changes of the
event function across each accepted step and refined by bisection on the
step's quartic interpolant until the bracket is narrower than 1e-13 in
rescaled time.
"""

from dataclasses import dataclass
import math

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

EVENT_KINDS = ("angle-crossing", "v-zero", "w-zero", "r-exceeds", "r-below")


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

    def value(self, y) -> float:
        if self.kind == "angle-crossing":
            return y[2] - self.theta
        if self.kind == "v-zero":
            return y[1]
        if self.kind == "w-zero":
            return y[3]
        if self.kind in ("r-exceeds", "r-below"):
            return y[0] - self.threshold
        raise DomainError("unknown event kind %r" % (self.kind,))


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
    return math.sqrt(float(np.mean((x / scale) ** 2)))


def _initial_step(f, s0, y0, f0, rtol, atol, max_s):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0, scale)
    d1 = _rms_norm(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = np.asarray(f(s0 + h0, y1), dtype=float)
    if not np.all(np.isfinite(f1)):
        return min(h0, max_s)
    d2 = _rms_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, max_s)


class _DenseStep:
    """Quartic interpolant over one accepted step [s0, s0+h]."""

    def __init__(self, s0, h, y0, k):
        self.s0 = s0
        self.h = h
        self.y0 = y0
        self.q = k.T @ _P  # (dim, 4)

    def __call__(self, s):
        x = (s - self.s0) / self.h
        powers = np.array([x, x * x, x**3, x**4])
        return self.y0 + self.h * (self.q @ powers)


def _locate_events(events, dense, s0, s1, g0, g1):
    """Bisect each sign change to |bracket| <= 1e-13; return sorted hits."""
    hits = []
    for idx, spec in enumerate(events):
        a_val, b_val = g0[idx], g1[idx]
        crossed = (a_val < 0.0 < b_val) or (a_val > 0.0 > b_val) or (
            a_val != 0.0 and b_val == 0.0
        )
        if not crossed:
            continue
        if spec.direction and (b_val - a_val) * spec.direction <= 0.0:
            continue
        a, b, ga = s0, s1, a_val
        for _ in range(64):
            if b - a <= 1e-13:
                break
            m = 0.5 * (a + b)
            gm = spec.value(dense(m))
            if ga * gm <= 0.0:
                b = m
            else:
                a, ga = m, gm
        s_ev = 0.5 * (a + b)
        hits.append((s_ev, idx, spec))
    hits.sort(key=lambda t: (t[0], t[1]))
    return hits


def integrate(rhs, seed: State, events=(), controls=None) -> Trajectory:
    """Integrate dy/ds = rhs(s, y) from the seed state.

    rhs operates on the flat vector [r, v, angle, w].  Events are localized
    on the dense interpolant of each accepted step; a stop event truncates.
    Termination is "time-limit" when max_s (or the step budget) is reached,
    "step-failure" when the step size underflows, "crossing-cap" when
    max_angle_crossings angle events have fired, "event-stop" otherwise.
    """
    ctl = _as_controls(controls)
    events = list(events)
    y = seed.as_array()
    s = 0.0
    f0 = np.asarray(rhs(s, y), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise EvaluationError("non-finite field at the seed state")

    samples = [(0.0, seed)]
    hits = []
    next_sample = ctl.sample_ds if ctl.sample_ds else None

    h = _initial_step(rhs, s, y, f0, ctl.rtol, ctl.atol, ctl.max_s)
    err_prev = 1e-4
    termination = "time-limit"
    n_cross = 0
    g_prev = np.array([sp.value(y) for sp in events]) if events else None

    steps = 0
    while s < ctl.max_s:
        if steps >= _MAX_STEPS:
            termination = "time-limit"
            break
        steps += 1
        if s + h > ctl.max_s:
            h = ctl.max_s - s

        k = np.empty((7, y.size))
        k[0] = f0
        failed_eval = False
        for i in range(1, 7):
            yi = y + h * (_A[i] @ k[:i])
            k[i] = rhs(s + _C[i] * h, yi)
            if not np.all(np.isfinite(k[i])):
                failed_eval = True
                break
        if failed_eval:
            # retry with a smaller step; persistent failure means the run
            # hit a non-regularized singularity
            h *= 0.25
            if h < 1e-14 * max(1.0, abs(s)):
                termination = "step-failure"
                break
            continue

        y_new = y + h * (_B @ k)
        if not np.all(np.isfinite(y_new)):
            raise EvaluationError("non-finite state at s=%.17g" % (s,))
        err_vec = h * (_E @ k)
        scale = ctl.atol + ctl.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms_norm(err_vec, scale)
        if not math.isfinite(err):
            err = float("inf")

        if err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2) if math.isfinite(err) else 0.2
            if h < 1e-14 * max(1.0, abs(s)):
                termination = "step-failure"
                break
            continue

        # accepted
        dense = _DenseStep(s, h, y, k)
        s_new = s + h
        stop_at = None
        stop_kind = "event-stop"
        if events:
            g_new = np.array([sp.value(y_new) for sp in events])
            located = _locate_events(events, dense, s, s_new, g_prev, g_new)
            for s_ev, idx, spec in located:
                st_ev = seed.with_array(dense(s_ev))
                hits.append(EventHit(s_ev, spec, st_ev))
                if spec.action == "stop":
                    stop_at = s_ev
                    break
                if (ctl.max_angle_crossings is not None
                        and spec.kind == "angle-crossing"):
                    n_cross += 1
                    if n_cross >= ctl.max_angle_crossings:
                        stop_at = s_ev
                        stop_kind = "crossing-cap"
                        break
            g_prev = g_new

        if stop_at is not None:
            if next_sample is not None:
                while next_sample < stop_at:
                    samples.append((next_sample, seed.with_array(dense(next_sample))))
                    next_sample += ctl.sample_ds
            samples.append((stop_at, hits[-1].state))
            termination = stop_kind
            break

        if next_sample is not None:
            while next_sample <= s_new:
                samples.append((next_sample, seed.with_array(dense(next_sample))))
                next_sample += ctl.sample_ds
        else:
            samples.append((s_new, seed.with_array(y_new)))

        s, y = s_new, y_new
        f0 = k[6]  # FSAL
        if err == 0.0:
            factor = 10.0
        else:
            factor = 0.9 * err**-0.14 * err_prev**0.08
        h *= min(10.0, max(0.2, factor))
        err_prev = max(err, 1e-10)
        if s >= ctl.max_s:
            termination = "time-limit"
            break

    if termination != "event-stop" and samples[-1][0] < s:
        samples.append((s, seed.with_array(y)))
    return Trajectory(samples=samples, events=hits, termination=termination)


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

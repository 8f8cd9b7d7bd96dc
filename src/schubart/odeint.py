"""Adaptive Dormand-Prince 8(5,3) (DOP853) integration with dense output
and events.

The integrator is deliberately self-contained so that event localization
is reproducible bit-for-bit: events are bracketed by sign changes of the
event function across each accepted step and refined by bisection on the
step's 7th-order interpolant until the bracket is narrower than 1e-13 in
rescaled time.  The interpolant costs three more field evaluations, made
only on steps that have a sign change or a dense sample.

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

# DOP853: the 8th-order pair of Dormand and Prince with its 5th- and
# 3rd-order error estimates and 7th-order continuous extension (Hairer,
# Norsett & Wanner, Solving ODEs I, II.5-II.6).  The constants are copied
# from scipy/integrate/_ivp/dop853_coefficients.py (scipy 1.17.1).  Row 12
# of _A holds the weights B of the solution, so stage 12 is the field at the
# new state and starts the next step (FSAL); rows 13-15 are the extra
# stages of the dense output.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
    0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778,
])
_A = np.zeros((16, 16))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2
_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2
_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1
_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1
_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2
_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3
_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1
_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2
_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022
_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1
_A[12, 0] = 5.42937341165687622380535766363e-2
_A[12, 5] = 4.45031289275240888144113950566
_A[12, 6] = 1.89151789931450038304281599044
_A[12, 7] = -5.8012039600105847814672114227
_A[12, 8] = 3.1116436695781989440891606237e-1
_A[12, 9] = -1.52160949662516078556178806805e-1
_A[12, 10] = 2.01365400804030348374776537501e-1
_A[12, 11] = 4.47106157277725905176885569043e-2
_A[13, 0] = 5.61675022830479523392909219681e-2
_A[13, 6] = 2.53500210216624811088794765333e-1
_A[13, 7] = -2.46239037470802489917441475441e-1
_A[13, 8] = -1.24191423263816360469010140626e-1
_A[13, 9] = 1.5329179827876569731206322685e-1
_A[13, 10] = 8.20105229563468988491666602057e-3
_A[13, 11] = 7.56789766054569976138603589584e-3
_A[13, 12] = -8.298e-3
_A[14, 0] = 3.18346481635021405060768473261e-2
_A[14, 5] = 2.83009096723667755288322961402e-2
_A[14, 6] = 5.35419883074385676223797384372e-2
_A[14, 7] = -5.49237485713909884646569340306e-2
_A[14, 10] = -1.08347328697249322858509316994e-4
_A[14, 11] = 3.82571090835658412954920192323e-4
_A[14, 12] = -3.40465008687404560802977114492e-4
_A[14, 13] = 1.41312443674632500278074618366e-1
_A[15, 0] = -4.28896301583791923408573538692e-1
_A[15, 5] = -4.69762141536116384314449447206
_A[15, 6] = 7.68342119606259904184240953878
_A[15, 7] = 4.06898981839711007970213554331
_A[15, 8] = 3.56727187455281109270669543021e-1
_A[15, 12] = -1.39902416515901462129418009734e-3
_A[15, 13] = 2.9475147891527723389556272149
_A[15, 14] = -9.15095847217987001081870187138
_B = _A[12, :12]
# the 5th- and 3rd-order error estimates, weights of stages 0..12
_E = np.zeros((2, 13))
_E[0, 0] = 0.1312004499419488073250102996e-1
_E[0, 5] = -0.1225156446376204440720569753e+1
_E[0, 6] = -0.4957589496572501915214079952
_E[0, 7] = 0.1664377182454986536961530415e+1
_E[0, 8] = -0.3503288487499736816886487290
_E[0, 9] = 0.3341791187130174790297318841
_E[0, 10] = 0.8192320648511571246570742613e-1
_E[0, 11] = -0.2235530786388629525884427845e-1
_E[1, :12] = _B
_E[1, 0] -= 0.244094488188976377952755905512
_E[1, 8] -= 0.733846688281611857341361741547
_E[1, 11] -= 0.220588235294117647058823529412e-1
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
_G[3, 0] = -0.84289382761090128651353491142e+1
_G[3, 5] = 0.56671495351937776962531783590
_G[3, 6] = -0.30689499459498916912797304727e+1
_G[3, 7] = 0.23846676565120698287728149680e+1
_G[3, 8] = 0.21170345824450282767155149946e+1
_G[3, 9] = -0.87139158377797299206789907490
_G[3, 10] = 0.22404374302607882758541771650e+1
_G[3, 11] = 0.63157877876946881815570249290
_G[3, 12] = -0.88990336451333310820698117400e-1
_G[3, 13] = 0.18148505520854727256656404962e+2
_G[3, 14] = -0.91946323924783554000451984436e+1
_G[3, 15] = -0.44360363875948939664310572000e+1
_G[4, 0] = 0.10427508642579134603413151009e+2
_G[4, 5] = 0.24228349177525818288430175319e+3
_G[4, 6] = 0.16520045171727028198505394887e+3
_G[4, 7] = -0.37454675472269020279518312152e+3
_G[4, 8] = -0.22113666853125306036270938578e+2
_G[4, 9] = 0.77334326684722638389603898808e+1
_G[4, 10] = -0.30674084731089398182061213626e+2
_G[4, 11] = -0.93321305264302278729567221706e+1
_G[4, 12] = 0.15697238121770843886131091075e+2
_G[4, 13] = -0.31139403219565177677282850411e+2
_G[4, 14] = -0.93529243588444783865713862664e+1
_G[4, 15] = 0.35816841486394083752465898540e+2
_G[5, 0] = 0.19985053242002433820987653617e+2
_G[5, 5] = -0.38703730874935176555105901742e+3
_G[5, 6] = -0.18917813819516756882830838328e+3
_G[5, 7] = 0.52780815920542364900561016686e+3
_G[5, 8] = -0.11573902539959630126141871134e+2
_G[5, 9] = 0.68812326946963000169666922661e+1
_G[5, 10] = -0.10006050966910838403183860980e+1
_G[5, 11] = 0.77771377980534432092869265740
_G[5, 12] = -0.27782057523535084065932004339e+1
_G[5, 13] = -0.60196695231264120758267380846e+2
_G[5, 14] = 0.84320405506677161018159903784e+2
_G[5, 15] = 0.11992291136182789328035130030e+2
_G[6, 0] = -0.25693933462703749003312586129e+2
_G[6, 5] = -0.15418974869023643374053993627e+3
_G[6, 6] = -0.23152937917604549567536039109e+3
_G[6, 7] = 0.35763911791061412378285349910e+3
_G[6, 8] = 0.93405324183624310003907691704e+2
_G[6, 9] = -0.37458323136451633156875139351e+2
_G[6, 10] = 0.10409964950896230045147246184e+3
_G[6, 11] = 0.29840293426660503123344363579e+2
_G[6, 12] = -0.43533456590011143754432175058e+2
_G[6, 13] = 0.96324553959188282948394950600e+2
_G[6, 14] = -0.39177261675615439165231486172e+2
_G[6, 15] = -0.14972683625798562581422125276e+3

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
    rtol: float = 1e-11
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
                      (0.01 / d) ** 0.125)
    h = np.minimum(np.minimum(100.0 * h0, h1), max_s)
    return np.where(np.isfinite(f1).all(axis=0), h, np.minimum(h0, max_s))


def _combine(weights, k):
    """sum_i weights[..., i] k[i] over the leading stage axis of k (its
    first weights.shape[-1] stages)."""
    n = weights.shape[-1]
    return (weights @ k[:n].reshape(n, -1)).reshape(weights.shape[:-1]
                                                    + k.shape[1:])


def _stages(f, s, y, h, f0):
    """The stage slopes of a step of size h from (s, y): stages 0..12 filled
    (stage 12 is the field at the new state), room left for the three
    dense-output stages; and whether every stage was finite (per lane for a
    block).  Stops at the first non-finite stage of a flat state, or once
    every lane of a block has one."""
    k = np.empty((16,) + y.shape)
    k[0] = f0
    ok = True
    for i in range(1, 13):
        k[i] = f(s + _C[i] * h, y + h * _combine(_A[i, :i], k))
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
    """The DOP853 error norm, per lane for a block: the 5th-order estimate
    e5 damped by the 3rd-order e3, |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n)
    in scaled RMS terms; inf where not finite."""
    scale = ctl.atol + ctl.rtol * np.maximum(np.abs(y), np.abs(y_new))
    e5, e3 = ((_combine(_E, k) / scale) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * len(y))
    return np.fmin(np.where(e5 == 0.0, 0.0, err), np.inf)


def _shrink(err):
    """Step factor after a rejected step (err > 1)."""
    return np.maximum(0.2, 0.9 * np.maximum(err, 1.0) ** -0.125)


def _grow(err, err_prev):
    """Step factor after an accepted step: the PI controller at the
    exponents of an order-8 step (0.7/8, 0.4/8), clipped to [0.2, 10] (the
    floor on err only keeps the power finite at err = 0, which gets the
    full 10)."""
    factor = 0.9 * np.maximum(err, 1e-300) ** -0.0875 * err_prev**0.05
    return np.minimum(10.0, np.maximum(0.2, factor))


def _underflow(h, s):
    """Whether a retried step has shrunk below the resolution of s."""
    return h < 1e-14 * np.maximum(1.0, np.abs(s))


def _dense_coeffs(f, s, y, h, k):
    """Coefficients q (7, ...) of the 7th-order interpolant of an accepted
    step with stages k from _stages, per lane for a block: fills the three
    dense-output stages 13..15 of k (three field evaluations) and returns
    F / h of y(x) = y0 + F0 x + F1 x(1-x) + F2 x^2(1-x) + ... + F6
    x^4(1-x)^3."""
    for i in range(13, 16):
        k[i] = f(s + _C[i] * h, y + h * _combine(_A[i, :i], k))
    return _combine(_G, k)


def _interpolate(y0, h, q, x):
    """The 7th-order interpolant of a step of size h from y0 at the step
    fraction x, nested (Horner) in x and 1 - x."""
    u = 1.0 - x
    acc = q[6]
    for qi, t in zip(q[5::-1], (x, u, x, u, x, u)):
        acc = qi + t * acc
    return y0 + h * x * acc


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

    def locate(self, crossed, s0, h, g0, q):
        """Bisect every (lane, event) sign change marked in crossed (N, E)
        on its lane's interpolant to |bracket| <= 1e-13, all pairs at once.
        Lanes are the first axis of s0, h (N,) and g0 (N, E), the event
        values at the step start, and the last of q (7, 4, N).  Each pair's
        event polynomial in the step fraction is gathered once; every pair
        takes the halvings the longest step needs.
        Returns (lane, s, event index) triples ordered by lane, s, index."""
        lane, idx = np.nonzero(crossed)
        s0, h, g0 = s0[lane], h[lane], g0[lane, idx]
        q = q[:, self.component[idx], lane]
        # the bracket is [a, a + width] in the step fraction, and the event
        # function keeps the sign of g0 at a
        a, width, h_max = np.zeros(lane.size), 1.0, h.max()
        while width * h_max > 1e-13:
            width *= 0.5
            m = a + width
            a = np.where(g0 * _interpolate(g0, h, q, m) > 0.0, m, a)
        s_ev = s0 + h * (a + 0.5 * width)
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

        # accepted; the interpolant only for a sign change or a sample
        s_new = s + h
        stop_at = crossed = None
        if watch.specs:
            g_old, g_prev = g_prev, watch.values(y_new)
            crossed = watch.crossed(g_old, g_prev)
        if crossed is not None or (next_sample is not None
                                   and next_sample <= s_new):
            q = _dense_coeffs(rhs, s, y, h, k)
        if crossed is not None:
            located = watch.locate(crossed[None], np.array([s]),
                                   np.array([h]), g_old[None], q[..., None])
            stop_at, stop_kind, n_cross = _record(
                watch.specs, [(t, i) for _, t, i in located],
                lambda t: seed.with_array(_interpolate(y, h, q, (t - s) / h)),
                hits, n_cross, ctl.max_angle_crossings)

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
        f0 = k[12]  # FSAL
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
            # the interpolant on the accepted lanes with a sign change
            sub = (np.flatnonzero(accept & crossed.any(axis=1))
                   if crossed is not None else ())
            if len(sub):
                q = _dense_coeffs(f, s[sub], y[:, sub], h[sub], k[..., sub])
                located = watch.locate(crossed[sub], s[sub], h[sub],
                                       g_prev[sub], q)
                for jq, group in itertools.groupby(located, lambda t: t[0]):
                    j = sub[jq]
                    i = lane[j]
                    stop_at, kind, n_cross[j] = _record(
                        watch.specs, [(t, e) for _, t, e in group],
                        lambda t: seeds[i].with_array(_interpolate(
                            y[:, j], h[j], q[:, :, jq], (t - s[j]) / h[j])),
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
        f0 = np.where(advance, k[12], f0)  # FSAL
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

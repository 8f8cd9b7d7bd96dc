"""Adaptive integrator: accuracy, event localization, controls, and the
problem fields it is used with."""

import math

import numpy as np
import pytest

from schubart import dynamics as dyn
from schubart import odeint as oi
from schubart.dynamics import State
from schubart.errors import DomainError, EvaluationError
from schubart.odeint import Controls, EventSpec


def _circle_rhs(s, y):
    # (r, v) rotate; exact solution period 2 pi
    return np.array([-y[1], y[0], 0.0, 0.0])


def _drift_rhs(s, y):
    # angle advances linearly; handy for exact event locations
    return np.array([0.0, 0.0, 1.0, 0.0])


def test_accuracy_tracks_tolerance():
    seed = State(1.0, 0.0, 0.0, 0.0)
    errs = []
    for rtol in (1e-6, 1e-9, 1e-12):
        traj = oi.integrate(_circle_rhs, seed,
                            controls=Controls(rtol=rtol, atol=1e-14,
                                              max_s=2.0 * math.pi))
        end = traj.end_state
        errs.append(math.hypot(end.r - 1.0, end.v))
    assert errs[0] < 1e-4
    assert errs[1] < 1e-7
    assert errs[2] < 1e-10
    assert errs[2] < errs[0]


def test_dense_sampling_grid():
    seed = State(1.0, 0.0, 0.0, 0.0)
    traj = oi.integrate(_circle_rhs, seed, controls=Controls(
        rtol=1e-10, atol=1e-14, max_s=2.0 * math.pi, sample_ds=0.01))
    s, y = traj.s, traj.y
    assert y.shape == (4, len(s))
    assert s[0] == 0.0
    assert np.all(np.diff(s) > 0.0)
    # uniform interior grid at the requested spacing
    assert np.max(np.abs(np.diff(s)[:-1] - 0.01)) < 1e-12
    # interpolant accuracy: the samples lie on the exact circle
    assert np.max(np.hypot(y[0] - np.cos(s), y[1] - np.sin(s))) < 1e-9
    assert np.array_equal(traj.end_state, y[:, -1])


def test_flat_seed_samples_on_an_exact_grid():
    # a flat (2,) seed; samples at k sample_ds for k < 512, then the end
    # state, which is the end state of the same run without samples
    def rhs(s, y):
        return np.array([-y[1], y[0]])

    end = 2.0 * math.pi
    bare = oi.integrate(rhs, np.array([1.0, 0.0]),
                        controls=Controls(rtol=1e-10, atol=1e-14, max_s=end))
    traj = oi.integrate(rhs, [1.0, 0.0], controls=Controls(
        rtol=1e-10, atol=1e-14, max_s=end, sample_ds=end / 512.0))
    assert traj.y.shape == (2, 513)
    assert np.array_equal(traj.s[:-1], np.arange(512) * (end / 512.0))
    assert traj.s[-1] == bare.s[-1] == end
    assert np.array_equal(traj.y[:, -1], bare.y[:, -1])
    assert (traj.termination, traj.n_accept) == ("time-limit", bare.n_accept)
    assert np.max(np.abs(traj.y[0] - np.cos(traj.s))) < 1e-9


def test_flat_seed_refuses_events():
    # events are read off a State; a flat seed is refused before any step
    calls = []

    def rhs(s, y):
        calls.append(s)
        return (0.0,) * (len(y) - 2) + (1.0, 0.0)

    for seed in (np.array([-1.0]), np.array([1.0, 0.0, -0.5, 0.0])):
        with pytest.raises(DomainError, match="State seed"):
            oi.integrate(rhs, seed, events=[EventSpec.angle(0.0)])
    assert calls == []


def test_dop853_tableau_is_consistent():
    # 12 stages, the solution weights as stage 12 (FSAL) at the step end,
    # then the three dense-output stages, each built from earlier stages
    assert oi._A.shape == (16, 16)
    assert not np.triu(oi._A).any()
    assert np.array_equal(oi._A[12, :12], oi._B)
    assert oi._C[12] == 1.0
    assert oi._E.shape == (2, 13)
    assert oi._G.shape == (7, 16)
    # each stage sits at its node, the solution weights sum to one and the
    # two error estimates are differences of weights that do
    assert np.max(np.abs(oi._A.sum(axis=1) - oi._C)) < 1e-14
    assert abs(oi._B.sum() - 1.0) < 1e-14
    assert np.max(np.abs(oi._E.sum(axis=1))) < 1e-14
    # the stage rows and nodes a step reads are those of _A and _C
    assert len(oi._ROWS) == len(oi._NODES) == 16
    for i, row in enumerate(oi._ROWS):
        assert row.flags.c_contiguous
        assert np.array_equal(row, oi._A[i, :i])
    assert np.array_equal(oi._NODES, oi._C)


def test_interpolant_matches_the_step_ends(pyr2):
    rhs = oi.field_for(pyr2)
    y = np.array([0.2, 0.1, -0.4, dyn.solve_w(pyr2, 0.2, 0.1, -0.4)])
    s, h = 0.5, 0.05
    k, ok = oi._stages(rhs, s, y, h, rhs(s, y))
    assert ok
    y_new = y + h * oi._combine(oi._B, k)
    q = oi._dense_coeffs(rhs, s, y, h, k)
    assert np.array_equal(oi._interpolate(y, h, q, 0.0), y)
    assert np.max(np.abs(oi._interpolate(y, h, q, 1.0) - y_new)) < 1e-15
    # stage 12 is the field at the new state (FSAL)
    assert np.array_equal(k[12], rhs(s + h, y_new))


def test_generated_step_matches_scipy_rk_step(pyr2, pla10):
    # one generated step against scipy's DOP853 step on the same tableau
    # (its matmuls sum the stages in another order): the new state and the
    # dense output to a few ulp of the state, the stages to a few ulp of
    # their size, and the error norm, a difference of nearly equal stage
    # sums, to 1e-5
    from scipy.integrate import DOP853
    from scipy.integrate._ivp.rk import Dop853DenseOutput, rk_step
    step, dense = oi._scalar_step(4)
    atol, rtol = 1e-12, 1e-11
    for p, (r, v, theta), h in ((pyr2, (0.2, 0.1, -0.4), 0.05),
                                (pla10, (0.05, -0.3, 1.0), 0.01)):
        field = oi.field_for(p)
        rhs = lambda s, y: np.array(field(s, y.tolist()))
        s, y = 0.5, np.array([r, v, theta, dyn.solve_w(p, r, v, theta)])
        f = rhs(s, y)
        K = np.empty((16, 4))
        y_ref, _ = rk_step(rhs, s, y, f, h, DOP853.A, DOP853.B, DOP853.C,
                           K[:13])
        k, y_new, err = step(field, s, tuple(y.tolist()), h,
                             tuple(f.tolist()), atol, rtol)
        assert [type(c) for c in k + y_new] == [float] * 56
        ulp = np.spacing(np.maximum(np.abs(y), np.abs(y_ref)))
        assert (np.abs(np.array(y_new) - y_ref) <= 4 * ulp).all()
        scale = np.abs(K[:13]).max(axis=1, keepdims=True)
        assert (np.abs(np.reshape(k, (13, 4)) - K[:13])
                <= 16 * np.spacing(scale)).all()
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_ref))
        e5 = np.linalg.norm(K[:13].T @ DOP853.E5 / sc) ** 2
        e3 = np.linalg.norm(K[:13].T @ DOP853.E3 / sc) ** 2
        assert 0.0 < err <= 1.0
        assert err == pytest.approx(h * e5 / math.sqrt((e5 + 0.01 * e3) * 4),
                                    rel=1e-5)
        # scipy's dense output: stages 13..15, then F from the step's ends
        for i, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA),
                                   start=13):
            K[i] = rhs(s + c * h, y + K[:i].T @ a[:i] * h)
        F = np.empty((7, 4))
        F[0] = y_ref - y
        F[1] = h * f - F[0]
        F[2] = 2 * F[0] - h * (K[12] + f)
        F[3:] = h * DOP853.D @ K
        ref = Dop853DenseOutput(s, s + h, y, F)
        q = np.array(dense(field, s, tuple(y.tolist()), h, k))
        for x in (0.1, 0.5, 0.93):
            want = ref(s + x * h)
            assert (np.abs(oi._interpolate(y, h, q, x) - want)
                    <= 8 * ulp).all()


def test_matches_scipy_dop853_on_the_circle():
    from scipy.integrate import solve_ivp
    seed = State(1.0, 0.0, 0.0, 0.0)
    end = 20.0
    traj = oi.integrate(_circle_rhs, seed, controls=Controls(
        rtol=1e-10, atol=1e-14, max_s=end))
    ref = solve_ivp(_circle_rhs, (0.0, end), np.array(seed),
                    method="DOP853", rtol=1e-10, atol=1e-14)
    assert np.max(np.abs(traj.end_state - ref.y[:, -1])) < 1e-9
    # the same 8th-order pair: scipy's I controller settles at a larger
    # error per step than the PI controller here, so it takes fewer steps,
    # but not the several-fold difference of a lower-order pair
    n_ours, n_scipy = len(traj.s) - 1, len(ref.t) - 1
    assert n_scipy <= n_ours <= 1.5 * n_scipy


def test_event_localization_exact():
    seed = State(0.0, 0.0, -1.0, 0.0)
    traj = oi.integrate(_drift_rhs, seed,
                        events=[EventSpec.angle(0.25)],
                        controls=Controls(max_s=3.0))
    assert traj.termination == "time-limit"
    assert len(traj.events) == 1
    assert abs(traj.events[0].s - 1.25) < 1e-12
    assert traj.events[0].kind == "angle-crossing"


def test_event_direction_filter():
    seed = State(1.0, 0.0, 0.0, 0.0)
    # v = sin(s): crosses zero downward at s = pi, upward at 2 pi
    for direction, at in ((-1, math.pi), (1, 2.0 * math.pi)):
        traj = oi.integrate(_circle_rhs, seed,
                            events=[EventSpec.v_zero(direction=direction)],
                            controls=Controls(max_s=2.5 * math.pi))
        assert len(traj.events) == 1
        assert abs(traj.events[0].s - at) < 1e-10


def test_stop_action_truncates():
    seed = State(0.0, 0.0, -1.0, 0.0)
    traj = oi.integrate(_drift_rhs, seed,
                        events=[EventSpec.angle(0.0, action="stop")],
                        controls=Controls(max_s=10.0))
    assert traj.termination == "event-stop"
    assert abs(traj.end_s - 1.0) < 1e-12
    assert abs(traj.end_state.angle) < 1e-12


def test_simultaneous_events_ordered_by_spec_index():
    seed = State(0.0, 0.0, -1.0, 0.0)
    evs = [EventSpec.angle(0.5), EventSpec.angle(0.5)]
    traj = oi.integrate(_drift_rhs, seed, events=evs,
                        controls=Controls(max_s=3.0))
    assert len(traj.events) == 2
    assert traj.events[0].s == pytest.approx(traj.events[1].s, abs=1e-13)
    assert traj.events[0].spec is evs[0]
    assert traj.events[1].spec is evs[1]


def test_locate_gives_each_pair_its_own_halvings():
    # pairs with step sizes five decades apart, located together, give bit
    # for bit what each gives located alone
    rng = np.random.default_rng(11)
    watch = oi._Watch([EventSpec.v_zero(), EventSpec.w_zero()])
    h = np.array([2.7, 0.013, 0.4, 1e-5])
    s0 = np.array([0.0, 3.1, 17.25, 40.0])
    g0 = rng.uniform(0.1, 1.0, (4, 2)) * rng.choice([-1.0, 1.0], (4, 2))
    # each event polynomial g0 + h x (q0 + ...) in the step fraction x
    # falls through zero near x = 1/2
    q = 0.05 * rng.standard_normal((7, 4, 4))
    q[0] = -2.0
    q[:, watch.component] *= (g0 / h[:, None]).T
    crossed = np.ones((4, 2), dtype=bool)
    together = watch.locate(crossed, s0, h, g0, q)
    alone = []
    for j in range(4):
        got = watch.locate(crossed[j:j + 1], s0[j:j + 1], h[j:j + 1],
                           g0[j:j + 1], q[..., j:j + 1])
        alone += [(j, t, e) for _, t, e in got]
    assert len(together) == 8
    assert together == alone


def _counting_event_poly(monkeypatch):
    """Route oi._event_poly through a counter: one call per locate
    iteration.  Returns the one-element count list."""
    poly, calls = oi._event_poly, [0]

    def counted(*args):
        calls[0] += 1
        return poly(*args)

    monkeypatch.setattr(oi, "_event_poly", counted)
    return calls


def _one_pair(g0, q, h, s0=0.0):
    """locate on a single v-zero pair: g0 and the v row of q (7,)."""
    watch = oi._Watch([EventSpec.v_zero()])
    qq = np.zeros((7, 4, 1))
    qq[:, 1, 0] = q
    (_, s, _), = watch.locate(np.ones((1, 1), dtype=bool), np.array([s0]),
                              np.array([h]), np.array([[g0]]), qq)
    return s


def test_locate_finds_an_interior_root_to_rounding():
    # g0 + h x P(x) with random higher terms and q0 set so that g(r) = 0:
    # the root is known to rounding, and Newton converges onto it
    rng = np.random.default_rng(5)
    for r, h in ((0.23, 0.7), (0.61, 3.0), (0.88, 1e-3)):
        g0 = -0.4
        q = 0.3 * rng.standard_normal(7) / h
        q[0] = 0.0
        q[0] = -g0 / (h * r) - oi._interpolate(0.0, 1.0, q, r) / r
        s = _one_pair(g0, q, h)
        assert abs(s - r * h) <= 1e-15 * h


def test_locate_takes_few_newton_steps_on_a_transversal_crossing(
        monkeypatch):
    # v = sin(s) crosses zero at every multiple of pi, one step at a time
    calls = _counting_event_poly(monkeypatch)
    locate, per_call = oi._Watch.locate, []

    def counted(self, *args):
        calls[0] = 0
        out = locate(self, *args)
        per_call.append(calls[0])
        return out

    monkeypatch.setattr(oi._Watch, "locate", counted)
    seed = State(1.0, 0.0, 0.0, 0.0)
    for rtol in (1e-6, 1e-9, 1e-11):
        traj = oi.integrate(_circle_rhs, seed, [EventSpec.v_zero()],
                            Controls(rtol=rtol, atol=0.1 * rtol, max_s=20.0))
        assert len(traj.events) == 6
    assert len(per_call) == 18
    assert max(per_call) <= 6


def test_locate_converges_inside_a_near_tangent_bracket(monkeypatch):
    # g = c (x - r)^3 has g' = 0 at its root: Newton alone converges only
    # linearly there, and the bisection safeguard keeps the count bounded
    calls = _counting_event_poly(monkeypatch)
    r, c = 0.37, 2.0
    for h in (1e-5, 0.7, 30.0):
        calls[0] = 0
        # c (x - r)^3 = -c r^3 + h x P(x), P = (c / h)(x^2 - 3 r x + 3 r^2)
        # in the basis 1, (1 - x), x (1 - x) of the interpolant
        q = np.zeros(7)
        q[:3] = np.array([3 * r * r - 3 * r + 1, 3 * r - 1, -1.0]) * c / h
        s = _one_pair(-c * r ** 3, q, h, s0=5.0)
        assert 5.0 < s < 5.0 + h
        # the cube flattens g to rounding within about 1e-5 of the root
        assert abs((s - 5.0) / h - r) <= 1e-4
        assert calls[0] <= 100


def test_nan_seed_raises():
    bad = State(float("nan"), 0.0, 0.0, 0.0)
    with pytest.raises(EvaluationError):
        oi.integrate(_circle_rhs, bad)


def test_bit_determinism(pyr2):
    rhs = oi.field_for(pyr2)
    w0 = dyn.solve_w(pyr2, 0.2, 0.1, -0.4)
    seed = State(0.2, 0.1, -0.4, w0)
    runs = []
    for _ in range(2):
        traj = oi.integrate(rhs, seed, events=[EventSpec.angle(0.3)],
                            controls=Controls(max_s=5.0))
        runs.append((traj.s, traj.y, [h.s for h in traj.events]))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]


def test_energy_drift_newcoords(all_problems, rng):
    for p in all_problems:
        rhs = oi.field_for(p)
        w0 = dyn.solve_w(p, 0.1, 0.0, -0.35)
        seed = State(0.1, 0.0, -0.35, w0)
        traj = oi.integrate(rhs, seed,
                            controls=Controls(rtol=1e-12, atol=1e-14,
                                              max_s=10.0, sample_ds=0.25))
        # relative to the magnitude of the energy-relation terms (escaping
        # runs reach large r and v, where the relation cancels large terms)
        drift = max(
            abs(dyn.energy_residual(p, st)) / (1.0 + st.r + st.v * st.v)
            for _, st in traj
        )
        assert drift < 1e-10


def test_homothetic_orbit_stays_on_ray(all_problems):
    # brake release at the midpoint critical shape: theta and w stay zero
    for p in all_problems:
        ts = 0.0
        r0 = dyn.v_of_theta(p, ts)
        rhs = oi.field_for(p)
        seed = State(r0, 0.0, ts, 0.0)
        traj = oi.integrate(rhs, seed,
                            controls=Controls(max_s=4.0, sample_ds=0.1))
        for _, st in traj:
            assert abs(st.angle - ts) < 1e-9
            assert abs(st.w) < 1e-9
        # the collapse is monotone: v decreases from 0
        vs = [st.v for _, st in traj]
        assert all(b <= a + 1e-12 for a, b in zip(vs, vs[1:]))


def test_collision_manifold_flow(pyr2, spa3, pla3):
    # r pinned at zero; v is a Lyapunov function (nondecreasing)
    for p in (pyr2, spa3, pla3):
        wc, _ = dyn.curly_w(p, -1.0)
        c = dyn.chart_eval(p, -1.0)[2]
        w0 = math.sqrt(2.0 * wc / c) * 0.7
        csq = math.cos(-1.0) ** 2
        v0 = -math.sqrt((2.0 * wc - w0 * w0 * c) / csq)
        seed = State(0.0, v0, -1.0, w0)
        traj = oi.integrate_collision_manifold(
            p, seed, controls=Controls(max_s=6.0, sample_ds=0.2))
        for _, st in traj:
            assert st.r == 0.0
        vs = [st.v for _, st in traj]
        assert all(b >= a - 1e-12 for a, b in zip(vs, vs[1:]))


def test_collision_manifold_rejects_positive_r(pyr2):
    from schubart.errors import DomainError
    with pytest.raises(DomainError):
        oi.integrate_collision_manifold(
            pyr2, State(0.5, 0.0, -1.0, 0.5))


def test_r_exceeds_stop(pla10):
    # this seed runs into a binary-cluster funnel and r grows without bound
    rhs = oi.field_for(pla10)
    w0 = dyn.solve_w(pla10, 0.1, 0.0, -0.35)
    seed = State(0.1, 0.0, -0.35, w0)
    traj = oi.integrate(rhs, seed, events=[EventSpec.r_exceeds(5.0)],
                        controls=Controls(max_s=100.0))
    assert traj.termination == "event-stop"
    assert traj.end_state.r == pytest.approx(5.0, abs=1e-8)


# -- lockstep blocks -----------------------------------------------------------


def _lanes_rhs(s, y):
    # r'' = 0.05 r, a pendulum in the angle; the field is not finite once
    # r <= 0, so a lane heading there ends in a step failure.  Takes a flat
    # state or a (4, N) block.
    r, v, th, w = y
    return np.array([v, 0.05 * r, w,
                     -0.1 * np.sin(th) + np.where(r > 0.0, 0.0, np.nan)])


_LANE_EVENTS = [EventSpec.angle(m * math.pi / 2.0) for m in range(-2, 4)] + [
    EventSpec.w_zero(direction=-1), EventSpec.r_exceeds(5.0)]
_LANE_CONTROLS = Controls(max_s=10.0, max_angle_crossings=3)
# (r, v, theta, w) -> the termination integrate gives that seed alone
_LANE_SEEDS = {
    (1.0, 0.0, 0.1, 1.0): "crossing-cap",  # spins through the lines
    (1.0, 1.0, 0.1, 0.01): "event-stop",  # escapes past r = 5
    (1.0, 0.0, 0.1, 0.01): "time-limit",  # swings once across theta = 0
    (1.0, -0.5, 0.1, 0.01): "step-failure",  # runs into r = 0
}


def _lane_seeds(copies):
    return [State(r, v, th + 0.01 * c, w)
            for c in range(copies) for r, v, th, w in _LANE_SEEDS]


def _assert_block_matches_integrate(seeds, rhs=_lanes_rhs):
    # a lockstep block: its lanes agree with integrate to rounding
    assert len(seeds) >= oi._SCALAR_BELOW
    block = oi.integrate_block(rhs, seeds, _LANE_EVENTS, _LANE_CONTROLS)
    assert len(block) == len(seeds)
    for seed, got in zip(seeds, block):
        want = oi.integrate(_lanes_rhs, seed, _LANE_EVENTS, _LANE_CONTROLS)
        assert got.termination == want.termination
        assert np.array_equal(got.s, [0.0, got.end_s])
        assert got.y.shape == (4, 2)
        assert np.array_equal(got.y[:, 0], seed)
        assert [h.kind for h in got.events] == [h.kind for h in want.events]
        for a, b in zip(got.events, want.events):
            assert a.spec is b.spec
            assert abs(a.s - b.s) < 1e-9
        assert abs(got.end_s - want.end_s) < 1e-9
        assert np.max(np.abs(np.subtract(got.end_state,
                                         want.end_state))) < 1e-9
    return block


def test_block_lanes_match_integrate_per_termination():
    seeds = _lane_seeds(3)
    block = _assert_block_matches_integrate(seeds)
    assert [t.termination for t in block] == list(_LANE_SEEDS.values()) * 3
    # the w-zero record fires on every lane but the one that spins
    assert [[h.kind for h in t.events].count("w-zero")
            for t in block[:4]] == [0, 1, 1, 1]


def test_stages_flag_the_lanes_with_a_non_finite_stage():
    # the middle lane runs into r = 0 inside the step, where _lanes_rhs is
    # not finite
    y = np.array([[1.0, 0.0, 0.1, 1.0], [0.1, -1.0, 0.1, 0.01],
                  [1.0, 1.0, 0.1, 0.01]]).T
    s, h = np.zeros(3), np.ones(3)
    k, ok = oi._stages(_lanes_rhs, s, y, h, _lanes_rhs(s, y))
    assert ok.tolist() == [True, False, True]
    for j in range(3):
        k_j, ok_j = oi._stages(_lanes_rhs, 0.0, y[:, j], 1.0,
                               _lanes_rhs(0.0, y[:, j]))
        assert ok_j == ok[j]
        if ok_j:
            assert np.array_equal(k_j[:13], k[:13, :, j])
        else:
            # finite at stages 0..2, not from stage 3 on
            assert np.isfinite(k_j[:3]).all()
            assert not np.isfinite(k_j[3]).all()


def test_dense_coeffs_of_a_lane_subset_match_the_whole_block():
    # a lane subset of the stage store is a copy that is not C-contiguous;
    # its dense-output stages must still feed its coefficients.  The BLAS
    # products sum a column in an order that depends on the column count,
    # so the subset is bit for bit its own contiguous run and agrees with
    # the whole block's columns to rounding
    y = np.array(_lane_seeds(3)[:9]).T
    s, h = np.linspace(0.0, 0.8, 9), np.linspace(0.05, 0.2, 9)
    k, ok = oi._stages(_lanes_rhs, s, y, h, _lanes_rhs(s, y))
    assert y.shape == (4, 9) and ok.all()
    sub = np.array([1, 4, 5, 8])
    k_sub = k[..., sub]
    assert not k_sub.flags.c_contiguous
    args = (_lanes_rhs, s[sub], y[:, sub], h[sub])
    q_sub = oi._dense_coeffs(*args, k_sub)
    assert np.array_equal(q_sub,
                          oi._dense_coeffs(*args, np.ascontiguousarray(k_sub)))
    q = oi._dense_coeffs(_lanes_rhs, s, y, h, k)
    size = oi._combine(np.abs(oi._G), np.abs(k[..., sub]))
    assert (np.abs(q_sub - q[..., sub]) <= 1e-14 * size).all()


def test_block_below_the_crossover_is_integrate_exactly():
    # fewer than _SCALAR_BELOW seeds fly as one integrate run each, so each
    # lane is its seed's scalar run, cut to the seed and the end state.  The
    # last seed steps into r < 0 at once and ends in a step failure at
    # s = 0, which keeps the seed alone; a seed given as an array flies with
    # events too, and the record keeps it as given
    stuck = State(1e-20, -1.0, 0.1, 0.01)
    seeds = _lane_seeds(1) + [stuck]
    assert len(seeds) < oi._SCALAR_BELOW
    for call in ([seeds[0]], seeds, [np.array(s) for s in seeds[:2]]):
        block = oi.integrate_block(_lanes_rhs, call, _LANE_EVENTS,
                                   _LANE_CONTROLS)
        assert len(block) == len(call)
        for seed, got in zip(call, block):
            want = oi.integrate(_lanes_rhs, State(*seed), _LANE_EVENTS,
                                _LANE_CONTROLS)
            assert got.seed is seed
            assert got.events == want.events
            assert (got.termination, got.nfev, got.n_accept, got.n_reject) == (
                want.termination, want.nfev, want.n_accept, want.n_reject)
            k = 2 if want.end_s > 0.0 else 1
            assert np.array_equal(got.s, [0.0, want.end_s][:k])
            assert np.array_equal(
                got.y, np.column_stack([seed, want.y[:, -1]])[:, :k])
            if seed is stuck:
                assert (got.termination, got.y.shape) == ("step-failure",
                                                          (4, 1))


def test_block_below_the_columnwise_size_matches_integrate():
    # a block from the crossover up whose lanes retire until fewer than
    # _COLUMNWISE_BELOW are live: from then on the field is evaluated one
    # column at a time, and every lane still matches its scalar run
    widths = []  # the lanes of each block call, 0 for a column's call

    def rhs(s, y):
        widths.append(y.shape[1] if np.ndim(y) == 2 else 0)
        return _lanes_rhs(s, y)

    seeds = _lane_seeds(3)
    _assert_block_matches_integrate(seeds, rhs)
    assert widths[0] == len(seeds)
    assert min(w for w in widths if w) >= oi._COLUMNWISE_BELOW
    assert 0 in widths


def test_block_takes_no_dense_sampling():
    from schubart.errors import DomainError
    with pytest.raises(DomainError):
        oi.integrate_block(_lanes_rhs, _lane_seeds(1),
                           controls=Controls(sample_ds=0.1))


def test_controls_reject_unusable_sampling_and_cap():
    # a negative sample_ds grew the sample grid without end; 0, nan and inf
    # gave an unsampled run without a word
    from schubart.errors import DomainError
    for bad in ({"sample_ds": -0.1}, {"sample_ds": 0.0},
                {"sample_ds": float("nan")}, {"sample_ds": float("inf")},
                {"max_angle_crossings": 0}, {"max_angle_crossings": -3},
                {"max_angle_crossings": 2.0}, {"max_angle_crossings": True}):
        with pytest.raises(DomainError):
            Controls(**bad)
    ok = Controls(sample_ds=1e-3, max_angle_crossings=1)
    assert (ok.sample_ds, ok.max_angle_crossings) == (1e-3, 1)


def _counting(rhs):
    """rhs and a one-item list that tallies its evaluations: one per flat
    state (a tuple from integrate) and one per column of a block."""
    calls = [0]

    def f(s, y):
        calls[0] += y.shape[1] if np.ndim(y) == 2 else 1
        return rhs(s, y)
    return f, calls


def test_step_counts_match_a_counting_field_on_a_pinned_shot(pyr2):
    # a pyramidal B(1)-window shot: its steps locate crossings, and at each
    # sampled run the dense fills cost three more evaluations; both runs
    # reject a few steps
    from schubart import orbits as ob
    seed = ob.seed_state(pyr2, ob.LOCUS_S, 1.1)
    events = [EventSpec.angle(m * math.pi / 2.0) for m in range(-3, 4)] + [
        EventSpec.v_zero(), EventSpec.w_zero()]
    for ctl in (Controls(max_s=30.0, max_angle_crossings=6),
                Controls(max_s=30.0, sample_ds=0.5)):
        f, calls = _counting(oi.field_for(pyr2))
        traj = oi.integrate(f, seed, events, ctl)
        assert traj.nfev == calls[0]
        assert traj.n_accept > 100 and traj.n_reject > 0
        for count in (traj.nfev, traj.n_accept, traj.n_reject):
            assert type(count) is int


def test_a_non_finite_stage_retries_at_a_quarter_step(monkeypatch):
    # a scalar run into r = 0, where _lanes_rhs is not finite: an attempt
    # with a non-finite stage is retried at a quarter of its step and
    # counts as rejected, and the run ends in a step failure
    attempts = []  # (h, whether a stage was not finite) per attempt
    built = oi._scalar_step

    def watched(d):
        step, dense = built(d)

        def recorded(rhs, s, y, h, *rest):
            out = step(rhs, s, y, h, *rest)
            attempts.append((h, out is None))
            return out
        return recorded, dense

    monkeypatch.setattr(oi, "_scalar_step", watched)
    f, calls = _counting(_lanes_rhs)
    seed = State(1.0, -0.5, 0.1, 0.01)
    traj = oi.integrate(f, seed, controls=Controls(max_s=10.0))
    assert traj.termination == "step-failure"
    failed = [i for i, (_, bad) in enumerate(attempts) if bad]
    assert len(failed) > 1
    for i in failed:
        if i + 1 < len(attempts):
            assert attempts[i + 1][0] == 0.25 * attempts[i][0]
    assert traj.n_accept + traj.n_reject == len(attempts)
    assert traj.n_reject >= len(failed)
    assert traj.nfev == calls[0]


def test_step_counts_match_a_counting_field_on_a_block():
    # a lockstep block of every termination, whose step failures count
    # their steps with a non-finite stage as rejected
    seeds = _lane_seeds(3)
    assert len(seeds) >= oi._SCALAR_BELOW
    f, calls = _counting(_lanes_rhs)
    block = oi.integrate_block(f, seeds, _LANE_EVENTS, _LANE_CONTROLS)
    assert sum(t.nfev for t in block) == calls[0]
    for traj in block:
        for count in (traj.nfev, traj.n_accept, traj.n_reject):
            assert type(count) is int
        if traj.termination == "step-failure":
            assert traj.n_reject > 0
    # each lane counts what its own run takes.  The retries into r = 0 of
    # a step failure hang on rounding, so only the lanes of the other
    # terminations take exactly the steps of their scalar runs
    for seed, lane in zip(seeds, block):
        if lane.termination != "step-failure":
            alone = oi.integrate(_lanes_rhs, seed, _LANE_EVENTS,
                                 _LANE_CONTROLS)
            assert (lane.nfev, lane.n_accept, lane.n_reject) == (
                alone.nfev, alone.n_accept, alone.n_reject)

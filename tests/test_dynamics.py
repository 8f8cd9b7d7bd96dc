"""Chart geometry, vector fields, symmetries, and configuration maps."""

import math
import sys

import numpy as np
import pytest

from schubart import dynamics as dyn
from schubart import problems as pr
from schubart.dynamics import State
from schubart.errors import DomainError, TotalCollisionError
from schubart.odeint import _COLUMNWISE_BELOW, _columnwise

THETA_STAR = {
    "pyr2": 0.4270785863924761,
    "pyr3": 0.32344757520836276,
    "spa3": 0.32344757520836265,
    "pla3": 0.052529263388832556,
    "pla10": 0.4115152141297674,
}
V_STAR = {
    "pyr2": 1.4564753151219703,
    "pyr3": 1.681792830507429,
    "spa3": 1.8243977430226639,
    "pla3": 3.2151235030470944,
    "pla10": 7.053041773188429,
}


def _on_shell_states(p, rng, count=100):
    """Random states satisfying the energy relation at h = -1."""
    out = []
    while len(out) < count:
        theta = rng.uniform(-1.3, 1.3)
        r = rng.uniform(0.005, 0.3)
        v = rng.uniform(-0.5, 0.5)
        w = dyn.solve_w(p, r, v, theta, sign=1 if rng.uniform() < 0.5 else -1)
        if w is None:
            continue
        out.append(State(r, v, theta, w))
    return out


def test_chart_point_on_unit_circle(pyr2, pla3):
    thetas = np.linspace(-3.0, 3.0, 1000)
    for p in (pyr2, pla3):
        for th in thetas:
            c1, c2, _, _ = dyn.chart_eval(p, th)
            assert c1**2 + c2**2 == pytest.approx(1.0, abs=1e-14)


def test_chart_c_against_finite_differences(pyr2, pla3):
    h = 1e-6
    thetas = np.linspace(-3.0, 3.0, 1000)
    for p in (pyr2, pla3):
        for th in thetas:
            c_p = dyn.chart_eval(p, th + h)[2]
            c_m = dyn.chart_eval(p, th - h)[2]
            fd = (c_p - c_m) / (2.0 * h)
            cp = dyn.chart_eval(p, th)[3]
            assert fd == pytest.approx(cp, abs=2e-9)


def test_chart_c_known_values(pyr2, pla3):
    # half: c = (1 + sin^2)^2 / 4; quarter: c = 1 + cos^2
    assert dyn.chart_eval(pyr2, 0.0)[2] == pytest.approx(0.25)
    assert dyn.chart_eval(pyr2, math.pi / 2)[2] == pytest.approx(1.0)
    assert dyn.chart_eval(pla3, 0.0)[2] == pytest.approx(2.0)
    assert dyn.chart_eval(pla3, math.pi / 2)[2] == pytest.approx(1.0)


def test_phi_theta_roundtrip(all_problems):
    for p in all_problems:
        # stay 1e-3 off the arms: theta(phi) has a vertical tangent there
        thetas = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 400)
        phis = np.array([dyn.phi_of_theta(p, t) for t in thetas])
        # phi stays in the open shape domain and is strictly increasing
        assert np.all(phis > p.phi_a) and np.all(phis < p.phi_b)
        assert np.all(np.diff(phis) > 0.0)
        back = np.array([dyn.theta_of_phi(p, f) for f in phis])
        assert np.max(np.abs(back - thetas)) < 1e-12


def test_curly_w_matches_chart_pullback(all_problems):
    for p in all_problems:
        for th in np.linspace(-1.5, 1.5, 200):
            wq = pr.potential(p, dyn.phi_of_theta(p, th), "W")
            factor = (1.0 + math.sin(th) ** 2) if p.chart == pr.HALF_CIRCLE else 2.0
            got, _ = dyn.curly_w(p, th)
            assert got == pytest.approx(factor * wq, rel=1e-13)


def test_curly_w_derivative_fd(all_problems):
    h = 1e-6
    for p in all_problems:
        for th in np.linspace(-1.5, 1.5, 100):
            fp, _ = dyn.curly_w(p, th + h)
            fm, _ = dyn.curly_w(p, th - h)
            _, got = dyn.curly_w(p, th)
            assert (fp - fm) / (2.0 * h) == pytest.approx(got, abs=5e-8)


def test_curly_w_deck_symmetry(pyr2, spa3):
    # the half-circle cover repeats under theta -> -pi - theta
    for p in (pyr2, spa3):
        for th in np.linspace(-1.5, 1.5, 50):
            a, _ = dyn.curly_w(p, th)
            b, _ = dyn.curly_w(p, -math.pi - th)
            assert a == pytest.approx(b, rel=1e-13)


def test_curly_w_arm_value(pyr2, spa3):
    # half chart: curly W(pi/2) = 2 * (S_n / 4)
    for p in (pyr2, spa3):
        got, _ = dyn.curly_w(p, math.pi / 2.0)
        assert got == pytest.approx(p.s_n / 2.0, rel=1e-13)


def test_theta_star_frozen(all_problems):
    for p, key in zip(all_problems, THETA_STAR):
        assert dyn.theta_star(p) == pytest.approx(THETA_STAR[key], abs=1e-11)


def test_v_of_theta_at_critical_shapes(all_problems):
    # equilibrium speed v* = sqrt(2 V) at the off-midpoint critical angle
    for p, key in zip(all_problems, V_STAR):
        ts = dyn.theta_star(p)
        assert math.sqrt(2.0 * dyn.v_of_theta(p, ts)) == pytest.approx(
            V_STAR[key], rel=1e-11)


def test_solve_w_closes_energy(all_problems, rng):
    for p in all_problems:
        for st in _on_shell_states(p, rng, count=100):
            assert abs(dyn.energy_residual(p, st)) < 1e-11


def test_solve_w_none_when_forbidden(pyr2):
    # large r at fixed theta pushes the radicand negative
    assert dyn.solve_w(pyr2, 1e6, 0.0, 0.3) is None


def test_newcoords_field_tangent_to_energy_level(all_problems, rng):
    # d/ds of the residual along the field vanishes on-shell
    h = 1e-7
    for p in all_problems:
        for st in _on_shell_states(p, rng, count=25):
            y = np.array(st)
            dy = np.array(dyn.newcoords_rhs(p, y.tolist()))
            rp = dyn.energy_residual(p, State(*(y + h * dy).tolist()))
            rm = dyn.energy_residual(p, State(*(y - h * dy).tolist()))
            assert abs((rp - rm) / (2.0 * h)) < 1e-6


def test_symmetry_involutions(pyr2, rng):
    states = _on_shell_states(pyr2, rng, count=20)
    for st in states:
        for op in ("R1", "R2"):
            img, rev = dyn.apply_symmetry(op, st)
            assert rev is True
            back, _ = dyn.apply_symmetry(op, img)
            assert np.allclose(back, st)
        img, rev = dyn.apply_symmetry("T1", st)
        assert rev is False
        assert img.angle == pytest.approx(st.angle + math.pi)


def test_symmetries_commute_with_field(all_problems, rng):
    # time-reversing T: F(T x) = -dT F(x); time-preserving: F(T x) = dT F(x)
    jac = {
        "R1": np.diag([1.0, -1.0, 1.0, -1.0]),
        "R2": np.diag([1.0, -1.0, -1.0, 1.0]),
        "T1": np.eye(4),
    }
    for p in all_problems:
        for st in _on_shell_states(p, rng, count=10):
            fx = np.array(dyn.newcoords_rhs(p, st))
            for op in ("R1", "R2", "T1"):
                img, rev = dyn.apply_symmetry(op, st)
                fi = np.array(dyn.newcoords_rhs(p, img))
                want = (-1.0 if rev else 1.0) * jac[op] @ fx
                assert np.max(np.abs(fi - want)) < 1e-10 * max(
                    1.0, float(np.max(np.abs(fx))))


def test_sigma_line_is_flow_symmetry_on_half_pi_grid(pyr2, rng):
    dsig = np.diag([1.0, -1.0, -1.0, 1.0])
    for st in _on_shell_states(pyr2, rng, count=10):
        fx = np.array(dyn.newcoords_rhs(pyr2, st))
        for k in (-1, 0, 1, 2):
            img, rev = dyn.sigma_line(k * math.pi / 2.0, st)
            assert rev is True
            fi = np.array(dyn.newcoords_rhs(pyr2, img))
            assert np.max(np.abs(fi + dsig @ fx)) < 1e-10 * max(
                1.0, float(np.max(np.abs(fx))))


def test_symmetries_map_column_blocks_like_states():
    # a (4, N) block maps column by column, bit for bit, as its States do
    # (own rng: the session stream is left as it was)
    y = np.random.default_rng(11).uniform(-2.0, 2.0, (4, 6))
    states = [State(*col) for col in y.T]
    maps = [lambda x, op=op: dyn.apply_symmetry(op, x)
            for op in ("R1", "R2", "T1")]
    maps += [lambda x, k=k: dyn.sigma_line(k * math.pi / 2.0, x)
             for k in (-1, 0, 2)]
    for image in maps:
        block, rev = image(y)
        assert rev is image(states[0])[1]
        want = np.array([image(st)[0] for st in states]).T
        assert np.array_equal(block, want)


def test_deck_transform_preserves_field(pyr2, spa3, rng):
    ddeck = np.diag([1.0, 1.0, -1.0, -1.0])
    for p in (pyr2, spa3):
        for st in _on_shell_states(p, rng, count=10):
            fx = np.array(dyn.newcoords_rhs(p, st))
            img, rev = dyn.deck_transform(st)
            assert rev is False
            fi = np.array(dyn.newcoords_rhs(p, img))
            assert np.max(np.abs(fi - ddeck @ fx)) < 1e-10 * max(
                1.0, float(np.max(np.abs(fx))))


def test_apply_symmetry_rejects_unknown(pyr2):
    st = State(1.0, 0.0, 0.1, 0.5)
    with pytest.raises(DomainError):
        dyn.apply_symmetry("R9", st)


def test_classify_region(pyr2):
    ts = dyn.theta_star(pyr2)
    mk = lambda th, w: State(1.0, 0.0, th, w)
    assert dyn.classify_region(pyr2, mk(ts - math.pi + 0.1, 0.5)) == "R_I"
    assert dyn.classify_region(pyr2, mk(ts - math.pi + 0.1, -0.5)) == "Q_I"
    assert dyn.classify_region(pyr2, mk(-1.0, 0.5)) == "R_II"
    assert dyn.classify_region(pyr2, mk(-1.0, -0.5)) == "Q_II"
    assert dyn.classify_region(pyr2, mk(-0.2, 0.5)) == "R_III"
    assert dyn.classify_region(pyr2, mk(0.4, 0.5)) == "outside"
    assert dyn.classify_region(pyr2, mk(-0.2, -0.5)) == "outside"


def test_configuration_roundtrip_newcoords(all_problems, rng):
    for p in all_problems:
        for st in _on_shell_states(p, rng, count=40):
            q1, q2, qd1, qd2 = dyn.to_configuration(p, st)
            back = dyn.from_configuration(p, q1, q2, qd1, qd2)
            assert np.max(np.abs(np.subtract(back, st))) < 1e-10


def test_from_configuration_returns_python_floats(all_problems):
    for p in all_problems:
        st = dyn.from_configuration(p, 1.0, 0.2, 0.1, 0.3)
        assert type(st) is State and [type(x) for x in st] == [float] * 4


def test_total_collision_guard(pyr2):
    with pytest.raises(TotalCollisionError):
        dyn.to_configuration(pyr2, State(0.0, 0.0, 0.1, 0.5))
    with pytest.raises(TotalCollisionError):
        dyn.from_configuration(pyr2, 0.0, 0.0, 0.0, 0.0)


def _off_shell_states(rng, count):
    """Random newcoords states with no energy relation imposed."""
    return [State(rng.uniform(0.0, 0.3), rng.uniform(-2.0, 2.0),
                  rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
            for _ in range(count)]


def test_energy_gradient_matches_finite_differences(all_problems):
    rng = np.random.default_rng(4)
    h = 1e-6
    for p in all_problems:
        states = (_on_shell_states(p, rng, count=20)
                  + _off_shell_states(rng, count=20))
        for st in states:
            y = np.array(st)
            res, grad = dyn.energy_gradient(p, y.tolist())
            assert res == dyn.energy_residual(p, st)
            fd = np.empty(4)
            for j in range(4):
                step = np.zeros(4)
                step[j] = h
                fd[j] = (dyn.energy_residual(p, State(*(y + step).tolist()))
                         - dyn.energy_residual(p, State(*(y - step).tolist()))
                         ) / (2.0 * h)
            assert (np.linalg.norm(np.array(grad) - fd)
                    <= 1e-7 * np.linalg.norm(fd))


def test_newcoords_field_broadcasts_over_columns(all_problems):
    rng = np.random.default_rng(5)
    for p in all_problems:
        block = np.array(_off_shell_states(rng, count=64)).T
        got = np.array(dyn.newcoords_rhs(p, block))
        want = np.array([dyn.newcoords_rhs(p, col.tolist())
                         for col in block.T]).T
        assert got.shape == block.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_damped_reverse_field_fuses_field_and_energy(all_problems,
                                                     monkeypatch):
    # bit for bit the reversed field plus the damping built from a
    # separate energy_gradient call, from one chart-term evaluation; |grad
    # E|^2 is summed left to right
    def composed(p, y, damp):
        dy = -np.array(dyn.newcoords_rhs(p, y))
        res, grad = dyn.energy_gradient(p, y)
        grad = np.array(grad)
        grad[0] = 0.0
        n2 = sum(g * g for g in grad.tolist())
        if n2 > 0.0:
            dy -= damp * res * grad / n2
        return dy

    rng = np.random.default_rng(6)
    for p in all_problems:
        states = (_on_shell_states(p, rng, count=20)
                  + _off_shell_states(rng, count=20))
        for st in states:
            y = st
            assert np.array_equal(dyn.damped_reverse_rhs(p, y, 20.0),
                                  composed(p, y, 20.0))
    calls = []
    p = all_problems[0]
    terms = p.chart_terms
    monkeypatch.setattr(p, "chart_terms",
                        lambda theta: calls.append(1) or terms(theta))
    dyn.damped_reverse_rhs(p, states[0], 20.0)
    assert len(calls) == 1


def test_tuple_evaluations_are_floats_equal_to_flat_calls(all_problems):
    # a State or a tuple gives a tuple of Python floats, the bits of the
    # call on the same four floats as a list (the form a block column is
    # passed in)
    rng = np.random.default_rng(20)
    for p in all_problems:
        states = (_on_shell_states(p, rng, count=20)
                  + _off_shell_states(rng, count=20))
        for field in (lambda y: dyn.newcoords_rhs(p, y),
                      lambda y: dyn.damped_reverse_rhs(p, y, 20.0)):
            for st in states:
                y = np.array(st).tolist()
                got = field(tuple(y))
                assert type(got) is tuple
                assert [type(c) for c in got] == [float] * 4
                assert got == field(y) == field(st)


def test_field_is_lane_invariant(all_problems):
    # a block column must give the bits of its flat call whatever the
    # number of columns, also past 8 interaction terms, where numpy's own
    # sums would switch between pairwise and row-by-row order
    rng = np.random.default_rng(15)
    for p in all_problems + [pr.spatial(9), pr.planar(17)]:
        for count in (1, 2, 3, 7, 8, 9, 400):
            block = np.array(_off_shell_states(rng, count)).T
            field = np.array(dyn.newcoords_rhs(p, block))
            res, grad = dyn.energy_gradient(p, block)
            grad = np.array(grad)
            for j in range(count):
                y = block[:, j].tolist()
                assert np.array_equal(field[:, j], dyn.newcoords_rhs(p, y))
                res_j, grad_j = dyn.energy_gradient(p, y)
                assert res[j] == res_j and np.array_equal(grad[:, j], grad_j)
        below = block[:, :_COLUMNWISE_BELOW - 1]
        rhs = _columnwise(lambda s, y: dyn.newcoords_rhs(p, y))
        assert np.array_equal(rhs(np.zeros(below.shape[1]), below),
                              dyn.newcoords_rhs(p, below))


def test_non_finite_angle_gives_nan_components(pyr2, pla10):
    # math.sin(inf) raises ValueError; the fields send a non-finite angle to
    # numpy instead, so every component comes back nan and the integrator
    # rejects the step rather than stopping on an exception
    for p in (pyr2, pla10):
        for theta in (math.inf, -math.inf, math.nan):
            y = (0.1, 0.2, theta, 0.3)
            with np.errstate(invalid="ignore"):
                res, grad = dyn.energy_gradient(p, y)
                outs = (dyn.newcoords_rhs(p, y),
                        dyn.damped_reverse_rhs(p, y, 2.0), (res,) + grad)
            for out in outs:
                assert np.isnan(out).all(), (p, theta, out)


def test_flat_chart_terms_are_python_floats(all_problems, monkeypatch):
    # the float path must not fall back to numpy scalars
    seen = []
    for p in all_problems:
        terms = p.chart_terms
        monkeypatch.setattr(p, "chart_terms",
                            lambda theta: seen.append(terms(theta))
                            or seen[-1])
        seen.clear()
        dyn.newcoords_rhs(p, (0.1, 0.2, -0.4, 0.3))
        assert len(seen) == 1 and len(seen[0]) == 8
        assert [type(t) for t in seen[0]] == [float] * 8


def test_float_interaction_sums_run_no_numpy(all_problems, monkeypatch):
    # no numpy function and no array of interaction cosines on the float
    # path: the sums must run over the Python floats of _ring_cos (the
    # problems here are built without its array), and the fields read the
    # shape point (cos phi, sin phi) without forming the shape angle
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy ufunc on the float path")

    ring_cos = pr._ring_cos
    monkeypatch.setattr(pr, "_ring_cos",
                        lambda n, per: (ring_cos(n, per)[0], None))
    problems = [pr.ProblemSpec(p.kind, p.n, p.mu) for p in all_problems]
    for name in ("sqrt", "sin", "cos", "add", "multiply", "arctan",
                 "arctan2"):
        monkeypatch.setattr(np, name, refuse)
    y = (0.1, 0.2, 0.4, 0.3)
    for p in problems:
        w, wp = p.quantities(math.cos(0.3), math.sin(0.3), math)
        assert type(w) is float and type(wp) is float
        for dy in (dyn.newcoords_rhs(p, y), dyn.damped_reverse_rhs(p, y, 2.0)):
            assert [type(t) for t in dy] == [float] * 4


def test_no_field_evaluation_reads_the_kind(all_problems, monkeypatch):
    # each problem binds its potential, chart and configuration scale when
    # it is built, so an evaluation has no kind and no chart to decide again
    def outputs(p, ys):
        out = []
        for y in ys:
            st = State(*y)
            out += [dyn.newcoords_rhs(p, y), dyn.damped_reverse_rhs(p, y, 2.0),
                    dyn.energy_gradient(p, y), dyn.solve_w(p, *y[:3]),
                    dyn.curly_w(p, y[2]), dyn.v_of_theta(p, y[2]),
                    dyn.chart_eval(p, y[2]), dyn.energy_residual(p, st),
                    dyn.to_configuration(p, st)]
        block = np.array(ys).T
        out += [[row.tolist() for row in dyn.newcoords_rhs(p, block)],
                [row.tolist() for row in dyn.energy_gradient(p, block)[1]]]
        phis = np.linspace(p.phi_a + 1e-3, p.phi_b - 1e-3, 101)
        out += [pr.potential(p, phis, "V'").tolist(),
                pr.potential(p, float(phis[37]), "V'")]
        return repr(out)

    rng = np.random.default_rng(23)
    ys = rng.uniform([0.1, -2.0, -3.0, -2.0], [2.0, 2.0, 3.0, 2.0],
                     size=(20, 4)).tolist()
    for p in all_problems:
        want = outputs(p, ys)
        monkeypatch.setattr(p, "kind", "unknown")
        monkeypatch.setattr(p, "chart", "unknown")
        assert outputs(p, ys) == want, p


def test_flat_field_call_makes_five_python_calls(pyr2):
    # newcoords_rhs, the bound chart terms, _xp, the bound quantities and
    # _field: nothing between them picks a chart or a kind
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        dyn.newcoords_rhs(pyr2, (0.1, 0.2, -0.4, 0.3))
    finally:
        sys.setprofile(None)
    assert len(calls) <= 5, calls

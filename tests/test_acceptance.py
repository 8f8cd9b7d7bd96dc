"""Acceptance gate: one printed pass/FAIL line per numbered criterion.

Every criterion prints its line with the measured values before asserting,
so a full run always shows the complete scoreboard.  Lines 1, 2, 9 and 11
currently FAIL for substantive reasons (index-shifted target tables, one
comparison clause that the n=2 landmark genuinely violates, one family
member with no shooting bracket); the printed evidence states exactly
what was measured.
"""

import math
import time

import numpy as np
import pytest

import schubart.conditions as cond
import schubart.dynamics as dyn
import schubart.manifolds as mf
import schubart.odeint as oi
import schubart.orbits as ob
import schubart.problems as pr
from schubart.dynamics import NEWCOORDS, State
from schubart.errors import OrbitNotFoundError
from schubart.odeint import Controls

SEED_OF_RECORD = 20260816


@pytest.fixture
def report(capsys):
    def _report(num, ok, detail):
        with capsys.disabled():
            print("ACCEPTANCE %02d %s - %s"
                  % (num, "pass" if ok else "FAIL", detail))
        return ok
    return _report


def test_criterion_01_spatial_g3_table(report):
    targets = [-1.41124, -1.28340, -1.21070, -1.16294,
               -1.12866, -1.10259, -1.08191, -1.06499]
    t0 = time.perf_counter()
    vals = [cond.integrate_g(pr.spatial(n), "g3").endpoint_g
            for n in range(2, 10)]
    elapsed = time.perf_counter() - t0
    devs = [abs(v - t) for v, t in zip(vals, targets)]
    ok = max(devs) <= 5e-4 and elapsed < 60.0
    shifted = [abs(vals[i + 1] - targets[i]) for i in range(7)]
    detail = ("spatial g3 endpoints n=2..9: max dev %.3g (tol 5e-4), %.1fs"
              % (max(devs), elapsed))
    if not ok and max(shifted) <= 5e-4:
        detail += ("; n=2 computes %.6f vs target %.5f, and the target row "
                   "matches the computed values at n+1 (shifted max dev "
                   "%.2g): the target table is offset by one in n"
                   % (vals[0], targets[0], max(shifted)))
    assert report(1, ok, detail), detail


def test_criterion_02_pyramidal_g3_endpoints(report):
    targets = {2: -1.2328676, 3: -0.9930229}
    vals = {n: cond.integrate_g(pr.pyramidal(n), "g3").endpoint_g
            for n in (2, 3, 4)}
    devs = {n: abs(vals[n] - targets[n]) for n in targets}
    ok = max(devs.values()) <= 5e-4
    detail = ("pyramidal g3 endpoints: n=2 %.6f vs %.6f, n=3 %.6f vs %.6f "
              "(tol 5e-4)" % (vals[2], targets[2], vals[3], targets[3]))
    if not ok and (abs(vals[3] - targets[2]) <= 5e-4
                   and abs(vals[4] - targets[3]) <= 5e-4):
        detail += ("; the targets match the computed n=3 and n=4 values: "
                   "same one-off-in-n offset as the spatial table")
    assert report(2, ok, detail), detail


def test_criterion_03_g2_endpoint(report):
    got = cond.integrate_g(pr.pyramidal(2), "g2").endpoint_g
    ok = abs(got - -1.315705) <= 1e-4
    detail = "g2 endpoint beta1 = %.8f vs -1.315705 (tol 1e-4)" % got
    assert report(3, ok, detail), detail


def test_criterion_04_g1_against_closed_form(report):
    res = cond.integrate_g(pr.pyramidal(2), "g1")
    exact = -np.sqrt(2.0 * np.clip(np.cos(res.phis), 0.0, None))
    sup = float(np.max(np.abs(res.gs - exact)))
    ok = sup <= 1e-6
    detail = "g1 sup-error vs -sqrt(2 cos phi) = %.3g (tol 1e-6)" % sup
    assert report(4, ok, detail), detail


def test_criterion_05_certificate_integral(report):
    got = cond.v2_certificate(pr.pyramidal(2))
    ok = (abs(got["integral"] - 1.379875) <= 1e-4
          and got["lower_bound_g_at_0"] > 0.0 and got["pass"])
    detail = ("certificate integral %.7f vs 1.379875 (tol 1e-4), "
              "lower bound %.6f > 0" % (got["integral"],
                                        got["lower_bound_g_at_0"]))
    assert report(5, ok, detail), detail


def test_criterion_06_elliptic_bound(report):
    val = 2.0 * cond.elliptic(-1.0)[1]
    gaps = []
    for m in (-1.0, -0.5, 0.25, 0.9):
        kq, eq = cond.elliptic(m, method="quadrature")
        ka, ea = cond.elliptic(m, method="agm")
        gaps += [abs(kq - ka), abs(eq - ea)]
    ok = 3.81 <= val <= 3.83 and max(gaps) <= 1e-10
    detail = ("2 E(-1) = %.8f in [3.81, 3.83]; quadrature-vs-AGM gap %.2g "
              "(tol 1e-10)" % (val, max(gaps)))
    assert report(6, ok, detail), detail


def test_criterion_07_csc_sum_asymptotics(report):
    rels = []
    for n in (47, 100, 1000):
        quarter = pr.csc_sum(n) / 4.0
        rels.append(abs(pr.csc_sum_asymptotic(n) - quarter) / quarter)
    ok = max(rels) < 1e-6
    detail = ("csc-sum asymptotic relative error n=47,100,1000: max %.2g "
              "(tol 1e-6)" % max(rels))
    assert report(7, ok, detail), detail


def test_criterion_08_saddle_location(report):
    devs = []
    for n in range(2, 21):
        closed = pr.phi_R_closed_form(n)
        numeric = pr.critical_points(pr.pyramidal(n)).phi_R
        devs.append(abs(closed - numeric))
    c472 = pr.critical_points(pr.pyramidal(472), grid=40000).count
    c473 = pr.critical_points(pr.pyramidal(473), grid=40000).count
    ok = max(devs) <= 1e-8 and (c472, c473) == (3, 1)
    detail = ("phi_R closed-vs-numeric max dev %.2g for n=2..20 (tol 1e-8); "
              "critical-point count %d -> %d across n=472/473"
              % (max(devs), c472, c473))
    assert report(8, ok, detail), detail


def test_criterion_09_landmark_signs_and_bound(report):
    beta = cond.DEFAULT_BETA
    signs_bad, bound_bad = [], []
    for n in range(2, 11):
        marks = mf.landmark_values(pr.pyramidal(n))
        if not (marks["v1"] < 0.0 < marks["v2"] and marks["v3"] < 0.0):
            signs_bad.append(n)
        if not beta / 2.0 * math.sqrt(pr.csc_sum(n)) < marks["v1"]:
            bound_bad.append(n)
    pla = mf.landmark_values(pr.planar(10))
    planar_ok = (pla["v2"] < 0.0 and pla["v3"] < 0.0
                 and pla["v4"] > 0.0 and pla["v5"] < 0.0)
    ok = not signs_bad and not bound_bad and planar_ok
    detail = ("pyramidal v1<0<v2, v3<0 for n=2..10: %s; planar n=10 "
              "v2<0, v3<0, v4>0, v5<0: %s"
              % ("all pass" if not signs_bad else "fail at %s" % signs_bad,
                 "pass" if planar_ok else "fail"))
    if bound_bad:
        marks2 = mf.landmark_values(pr.pyramidal(2))
        detail += ("; the clause beta/2*sqrt(S_n) < v1 fails at n=%s: "
                   "%.4f >= v1 = %.4f (it holds for n=3..10; the n=2 "
                   "branch endpoint lies below the comparison level)"
                   % (bound_bad, beta / 2.0 * math.sqrt(pr.csc_sum(2)),
                      marks2["v1"]))
    else:
        detail += "; beta/2*sqrt(S_n) < v1 for all n"
    assert report(9, ok, detail), detail


def test_criterion_10_mass_threshold(report):
    from scipy.optimize import brentq

    def v2_of(mu):
        return mf.landmark_values(pr.pyramidal(2, mu))["v2"]

    root = brentq(v2_of, 2.0, 3.0, xtol=1e-4)
    ok = abs(root - 2.662) <= 0.01
    detail = "v2 sign change at mu = %.5f vs 2.662 (tol 0.01)" % root
    assert report(10, ok, detail), detail


def test_criterion_11_orbit_existence(report):
    runs = [
        (pr.pyramidal(2), ob.FamilySpec("B", 0),
         {"param_lo": 0.4, "param_hi": 0.7, "grid_points": 9}),
        (pr.pyramidal(2), ob.FamilySpec("B", 1),
         {"param_lo": 0.9, "param_hi": 1.3, "grid_points": 9}),
        (pr.pyramidal(2), ob.FamilySpec("Z1", 0), {"grid_points": 40}),
        (pr.pyramidal(2), ob.FamilySpec("Z1", 1),
         {"param_lo": -2.66, "param_hi": -2.56, "grid_points": 9}),
        (pr.pyramidal(2), ob.FamilySpec("Z5", 1, 1),
         {"param_lo": -2.66, "param_hi": -2.56, "grid_points": 9}),
        (pr.spatial(3), ob.FamilySpec("B", 0),
         {"param_lo": 0.6, "param_hi": 1.0, "grid_points": 9}),
        (pr.planar(10), ob.FamilySpec("B", 0),
         {"param_lo": 12.0, "param_hi": 19.0, "grid_points": 9}),
    ]
    lines, ok = [], True
    for problem, spec, search in runs:
        tag = "%s %s" % (problem.kind, spec)
        try:
            orbit = ob.find_orbit(problem, spec, search)
        except OrbitNotFoundError as err:
            matched = [r for r in err.scan if r[1] == "matched"]
            lines.append("%s: NOT FOUND (%d/%d scan shots match the "
                         "pattern, residuals single-signed)"
                         % (tag, len(matched), len(err.scan)))
            ok = False
            continue
        checks = ob.verify_periodicity(problem, orbit)
        good = (orbit.residual <= 1e-8
                and checks["closure_error"] <= 1e-6
                and checks["energy_drift"] <= 1e-8)
        ok = ok and good
        lines.append("%s: res %.1e clo %.1e drift %.1e%s"
                     % (tag, orbit.residual, checks["closure_error"],
                        checks["energy_drift"], "" if good else " BAD"))
    detail = "; ".join(lines)
    assert report(11, ok, detail), detail


# -- criterion 12: property suites at 100 random seeds per problem ----------


def _on_shell(problem, rng, count):
    out = []
    while len(out) < count:
        theta = rng.uniform(-1.3, 1.3)
        r = rng.uniform(0.005, 0.3)
        v = rng.uniform(-0.5, 0.5)
        w = dyn.solve_w(problem, r, v, theta,
                        sign=1 if rng.uniform() < 0.5 else -1)
        if w is not None:
            out.append(State(NEWCOORDS, r, v, theta, w))
    return out


def _suite_energy_and_w_bound(problem, states):
    bad_e = bad_w = 0
    rhs = oi.field_for(problem, NEWCOORDS)
    for st in states:
        traj = oi.integrate(rhs, st, controls=Controls(max_s=1.0,
                                                       sample_ds=0.1))
        for _, smp in traj:
            scale = 1.0 + smp.r + smp.v * smp.v
            if abs(dyn.energy_residual(problem, smp)) > 1e-8 * scale:
                bad_e += 1
                break
        for _, smp in traj:
            wsq_max = 2.0 * dyn.curly_w(problem, smp.angle)[0] \
                / dyn.chart_eval(problem.chart, smp.angle).c
            if smp.w * smp.w > wsq_max + 1e-9 * (1.0 + wsq_max):
                bad_w += 1
                break
    return bad_e, bad_w


def _suite_reversibility(problem, states):
    bad = 0
    rhs = oi.field_for(problem, NEWCOORDS)
    ctl = Controls(max_s=0.7)
    for st in states:
        x = st
        for _ in range(2):
            end = oi.integrate(rhs, x, controls=ctl).end_state
            x = dyn.apply_symmetry("R1", end)[0]
        if not np.allclose(x.as_array(), st.as_array(),
                           rtol=1e-7, atol=1e-7):
            bad += 1
    return bad


def _suite_gradient_like(problem, rng, count):
    bad = 0
    done = 0
    while done < count:
        theta = rng.uniform(-1.3, 1.3)
        v = rng.uniform(-1.5, 1.5)
        w = dyn.solve_w(problem, 0.0, v, theta,
                        sign=1 if rng.uniform() < 0.5 else -1)
        if w is None:
            continue
        done += 1
        seed = State(NEWCOORDS, 0.0, v, theta, w)
        traj = oi.integrate_collision_manifold(
            problem, seed, controls=Controls(max_s=3.0, sample_ds=0.05,
                                             rtol=1e-12, atol=1e-14))
        vs, res = [], []
        for _, smp in traj:
            vs.append(smp.v)
            res.append(abs(dyn.energy_residual(problem, smp)))
        # passing a saddle sheds shadowing accuracy: assert monotonicity on
        # the portion of the run that is still on the energy shell
        cut = next((k for k, e in enumerate(res) if e > 1e-6), len(vs))
        if cut >= 2 and np.min(np.diff(np.array(vs[:cut]))) < -1e-9:
            bad += 1
    return bad


def _suite_branch_epsilon(problem, rng, count):
    base = mf.trace_branch(problem, "gamma",
                           stop_at_last_landmark=True).landmarks["v1"]
    eps0 = mf.default_epsilon(mf.equilibrium(problem, "L-"))
    bad = 0
    for _ in range(count):
        eps = eps0 * math.exp(rng.uniform(-math.log(3.0), math.log(3.0)))
        tr = mf.trace_branch(problem, "gamma", epsilon=eps,
                             stop_at_last_landmark=True)
        if abs(tr.landmarks["v1"] - base) > 1e-5:
            bad += 1
    return bad


def test_criterion_12_property_suites(report):
    rng = np.random.default_rng(SEED_OF_RECORD)
    count = 100
    totals = {"energy": 0, "w-bound": 0, "reversibility": 0,
              "manifold-monotone": 0, "branch-epsilon": 0}
    for problem in (pr.pyramidal(2), pr.spatial(3), pr.planar(10)):
        states = _on_shell(problem, rng, count)
        bad_e, bad_w = _suite_energy_and_w_bound(problem, states)
        totals["energy"] += bad_e
        totals["w-bound"] += bad_w
        totals["reversibility"] += _suite_reversibility(problem, states)
        totals["manifold-monotone"] += _suite_gradient_like(
            problem, rng, count)
        totals["branch-epsilon"] += _suite_branch_epsilon(
            problem, rng, count)
    ok = not any(totals.values())
    detail = ("%d seeds per problem x 3 problems: failures " % count
              + ", ".join("%s %d" % kv for kv in sorted(totals.items())))
    assert report(12, ok, detail), detail

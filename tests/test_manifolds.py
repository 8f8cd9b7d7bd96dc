"""Collision-manifold equilibria, branch traces, and the landmark values
v0..v5.  Frozen references come from an independent DOP853 oracle run."""

import math

import numpy as np
import pytest

from schubart import dynamics as dyn
from schubart import manifolds as mf
from schubart import problems as pr
from schubart.errors import DomainError
from schubart.odeint import Controls

# independent-oracle landmark values (forward/backward branch shooting)
LANDMARKS = {
    "pyr2": dict(v0=-1.8560200012576087, v1=-0.972510577033721,
                 v2=0.38968040560581235, v3=-1.2366046403204345),
    "pyr3": dict(v0=-2.351213684806775, v1=-0.8684569692121079,
                 v2=0.8345350054968625, v3=-1.5227174936771737),
    "spa3": dict(v0=-2.4892292816930786, v1=-1.0032672853095121,
                 v2=0.8026868262223694, v3=-1.6606154740253751),
    "pla3": dict(v1=-2.543070200697823, v2=-1.1939217642245354,
                 v3=-3.214556997009878, v4=0.30714569116452617,
                 v5=-2.5179692031632017),
    "pla10": dict(v1=-5.57062357547618, v2=-2.3967070470758487,
                  v3=-6.799989054804958, v4=1.080036055027909,
                  v5=-4.51587207269134),
}
V_STAR = {
    "pyr2": 1.4564753151219703,
    "pyr3": 1.681792830507429,
    "spa3": 1.8243977430226639,
    "pla3": 3.2151235030470944,
    "pla10": 7.053041773188429,
}
KEYS = ("pyr2", "pyr3", "spa3", "pla3", "pla10")


def test_equilibria_newcoords_layout(all_problems):
    for p in all_problems:
        eqs = mf.equilibria(p)
        labels = sorted(e.label for e in eqs)
        assert labels == sorted(
            ["E+", "E-", "L+", "L-", "L'+", "L'-", "L''+", "L''-"])
        ts = dyn.theta_star(p)
        by_label = {e.label: e for e in eqs}
        assert by_label["E+"].state.angle == 0.0
        assert by_label["L-"].state.angle == pytest.approx(ts - math.pi)
        assert by_label["L'-"].state.angle == pytest.approx(-ts)
        assert by_label["L''+"].state.angle == pytest.approx(ts)
        for e in eqs:
            assert e.state.r == 0.0
            assert e.state.w == 0.0
            assert (e.state.v > 0) == e.label.endswith("+")
            assert e.kind == ("Euler" if e.label.startswith("E") else "Lagrange")


def test_equilibria_speeds(all_problems):
    for p, key in zip(all_problems, KEYS):
        by_label = {e.label: e for e in mf.equilibria(p)}
        assert abs(by_label["L-"].state.v) == pytest.approx(
            V_STAR[key], rel=1e-11)
        v_mid = math.sqrt(2.0 * dyn.v_of_theta(p, 0.0))
        assert by_label["E+"].state.v == pytest.approx(v_mid, rel=1e-11)


def test_equilibria_are_field_zeros(all_problems):
    for p in all_problems:
        for eq in mf.equilibria(p):
            dy = dyn.newcoords_rhs(p, eq.state)
            assert np.max(np.abs(dy)) < 1e-9


def test_lagrange_minus_spectrum(pyr2):
    # restricted to the collision manifold, L- keeps one unstable direction;
    # the 4-d linearization shows one positive-real eigenvalue
    eq = mf.equilibrium(pyr2, "L-")
    vals = eq.eigenvalues
    pos = [v for v in vals if v.real > 1e-9 and abs(v.imag) < 1e-9]
    assert len(pos) == 1
    assert pos[0].real == pytest.approx(1.389246, abs=1e-4)


def test_equilibrium_lookup_matches_the_list(all_problems, monkeypatch):
    calls = []
    jacobian = mf._jacobian
    monkeypatch.setattr(mf, "_jacobian",
                        lambda *a: calls.append(a) or jacobian(*a))
    for p in all_problems:
        for eq in mf.equilibria(p):
            del calls[:]
            one = mf.equilibrium(p, eq.label)
            assert len(calls) == 1
            assert (one.kind, one.label) == (eq.kind, eq.label)
            assert one.state == eq.state
            assert np.array_equal(one.eigenvalues, eq.eigenvalues)
            assert np.array_equal(one.eigenvectors, eq.eigenvectors)


def test_equilibrium_lookup_unknown_label(pyr2):
    with pytest.raises(DomainError):
        mf.equilibrium(pyr2, "X+")


def test_landmarks_match_oracle(all_problems):
    for p, key in zip(all_problems, KEYS):
        marks = mf.landmark_values(p)
        want = LANDMARKS[key]
        assert set(want) <= set(marks)
        for name, ref in want.items():
            assert marks[name] == pytest.approx(ref, abs=5e-7), (key, name)


def test_landmarks_pyr2_tight(pyr2):
    # the n=2 pyramidal values are pinned much tighter than the sweep bound
    marks = mf.landmark_values(pyr2)
    assert marks["v0"] == pytest.approx(-1.8560200012576087, abs=1e-10)
    assert marks["v1"] == pytest.approx(-0.972510577033721, abs=1e-10)
    assert marks["v2"] == pytest.approx(0.38968040560581235, abs=1e-10)
    assert marks["v3"] == pytest.approx(-1.2366046403204345, abs=1e-10)


def test_default_landmarks_traced_once_per_problem(monkeypatch):
    # the default-epsilon landmarks are the problem's cached `landmarks`:
    # three branch traces once, a copy on every read; another epsilon
    # traces again and leaves the cache alone
    traced = []
    trace = mf.trace_branch

    def counted(p, branch, **kw):
        traced.append(branch)
        return trace(p, branch, **kw)

    monkeypatch.setattr(mf, "trace_branch", counted)
    p = pr.pyramidal(3)
    first = mf.landmark_values(p)
    first["v0"] = 0.0
    assert mf.landmark_values(p) == p.landmarks != first
    assert len(traced) == 3
    mf.landmark_values(p, epsilon=1e-6)
    assert len(traced) == 6 and mf.landmark_values(p) == p.landmarks


def test_landmark_epsilon_robustness(pyr2):
    base = mf.landmark_values(pyr2)
    alt = mf.landmark_values(pyr2, epsilon=1e-6)
    for name in base:
        assert alt[name] == pytest.approx(base[name], abs=1e-6)


def test_landmark_ordering(all_problems):
    # v0 < v1 < 0 on the half-circle problems; v2 > 0 holds for the axial
    # families but not for the planar ring
    for p, key in zip(all_problems, KEYS):
        marks = mf.landmark_values(p)
        if "v0" in marks:
            assert marks["v0"] < marks["v1"] < 0.0
        assert marks["v3"] < 0.0


def test_branch_traces_share_landmarks_with_cached_sweep(pyr2):
    tr = mf.trace_branch(pyr2, "gamma", stop_at_last_landmark=True)
    assert tr.branch == "gamma"
    assert "v1" in tr.landmarks and "v2" in tr.landmarks
    assert tr.names == {"newcoords": "gamma", "devaney": "gamma''"}


def test_branch_pairing_under_deck_map(pyr2):
    # (theta -> -pi - theta, w -> -w) maps gamma onto gamma'- and
    # gamma' onto gamma-; end states of finished traces mirror exactly
    ctl = Controls(rtol=1e-11, atol=1e-13, max_s=25.0)
    ends = {}
    for b in ("gamma", "gamma-", "gamma'", "gamma'-"):
        ends[b] = mf.trace_branch(pyr2, b, controls=ctl).trajectory.end_state
    for a, b in (("gamma", "gamma'-"), ("gamma'", "gamma-")):
        sa, sb = ends[a], ends[b]
        assert sb.v == pytest.approx(sa.v, abs=1e-6)
        assert sb.angle == pytest.approx(-math.pi - sa.angle, abs=1e-6)
        assert sb.w == pytest.approx(-sa.w, abs=1e-6)


def test_branch_terminations_pyr2(pyr2):
    want = {
        "gamma": "hole B_b+",
        "gamma-": "hole B_a+",
        "gamma'": "hole B_a+",
        "gamma'-": "hole B_b+",
    }
    for b, t in want.items():
        tr = mf.trace_branch(pyr2, b, controls=Controls(max_s=40.0))
        assert tr.termination == t, b


def test_trace_rejects_unknown_branch(pyr2):
    with pytest.raises(DomainError):
        mf.trace_branch(pyr2, "gamma!!")
    # a negative epsilon seeded on the other side and gave no landmarks, 0
    # seeded on the equilibrium itself, and nan raised EvaluationError
    for eps in (-1e-7, 0.0, math.nan, math.inf):
        for call in (lambda: mf.trace_branch(pyr2, "gamma", epsilon=eps),
                     lambda: mf.trace_landmarks(pyr2, eps),
                     lambda: mf.landmark_values(pyr2, eps)):
            with pytest.raises(DomainError):
                call()


def test_trace_stays_on_collision_manifold(pyr2):
    tr = mf.trace_branch(pyr2, "gamma", controls=Controls(max_s=15.0))
    y = tr.trajectory.y
    assert np.max(np.abs(y[0])) == 0.0
    # gradient-like flow: v nondecreasing along the forward trace
    v = y[1]
    assert np.all(np.diff(v) > -1e-10)
    # on-manifold energy relation holds throughout
    for _, st in list(tr.trajectory)[::5]:
        assert abs(dyn.energy_residual(pyr2, st)) < 1e-8


def test_backward_trace_is_not_stiffness_limited(pyr2, spa3, pla3,
                                                 monkeypatch):
    # the damping rate follows the saddle, so the step follows the branch
    calls = []
    damped = dyn.damped_reverse_rhs
    monkeypatch.setattr(dyn, "damped_reverse_rhs",
                        lambda *a: calls.append(a[2]) or damped(*a))
    for p in (pyr2, spa3):
        del calls[:]
        tr = mf.trace_branch(p, "stable-of-L'-", stop_at_last_landmark=True)
        assert "v0" in tr.landmarks
        rate = np.max(np.abs(mf.equilibrium(p, "L'-").eigenvalues.real))
        assert tr.damping == 2.0 * rate
        assert set(calls) == {tr.damping}
        assert len(calls) <= 800
        res, _ = dyn.energy_gradient(p, tr.trajectory.y)
        assert np.max(np.abs(res)) <= 1e-10
    assert mf.trace_branch(pla3, "stable-of-L'-").termination == "equilibrium"
    assert mf.trace_branch(pyr2, "gamma",
                           stop_at_last_landmark=True).damping is None


def test_check_N4(pyr2, pla10):
    got = mf.check_N4(pyr2)
    assert got["pass"] is True
    assert got["separation"] == pytest.approx(0.8469242347186942, abs=1e-7)
    got = mf.check_N4(pla10)
    assert got["pass"] is True
    assert got["separation"] == pytest.approx(9.196696102035563, abs=1e-6)

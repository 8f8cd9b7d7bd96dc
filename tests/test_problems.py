"""Potential data for the three problem families: sums, shapes, critical
points.  Frozen reference values come from an mpmath/scipy oracle run kept
outside the package."""

import math
import pickle

import numpy as np
import pytest

from schubart import problems as pr
from schubart.errors import DomainError, StructureError

# mpmath 50-digit partial sums, rounded to double
S_N = {
    2: 1.0,
    3: 2.309401076758503,
    4: 3.82842712474619,
    5: 5.505527681884693,
    6: 7.309401076758505,
    7: 9.219059483849946,
    8: 11.219463384836484,
    9: 13.299310754576991,
    10: 15.449799591883853,
    47: 118.95798761233534,
}


def test_csc_sum_matches_reference():
    for n, want in S_N.items():
        assert pr.csc_sum(n) == pytest.approx(want, rel=1e-14)


def test_csc_sum_rejects_bad_n():
    for n in (0, 1, -3):
        with pytest.raises(DomainError):
            pr.csc_sum(n)


def test_csc_sum_asymptotic_relative_error():
    # tail expansion approximates S_n/4; agreement tightens as n grows
    for n, cap in ((47, 1e-6), (100, 1e-6), (1000, 1e-6)):
        exact = pr.csc_sum(n) / 4.0
        approx = pr.csc_sum_asymptotic(n)
        assert abs(approx - exact) / exact < cap


def test_constructor_validation():
    with pytest.raises(DomainError):
        pr.pyramidal(1)
    with pytest.raises(DomainError):
        pr.pyramidal(2, mu=0.0)
    with pytest.raises(DomainError):
        pr.pyramidal(2, mu=-1.0)
    with pytest.raises(DomainError):
        pr.spatial(1)
    with pytest.raises(DomainError):
        pr.planar(2)  # planar ring needs n >= 3


def test_derived_fields_are_not_constructor_arguments():
    for name in ("phi_a", "phi_b", "chart", "s_n"):
        with pytest.raises(TypeError):
            pr.ProblemSpec("pyramidal", 2, **{name: 1.0})


def test_problems_pickle_with_their_bound_potential(all_problems):
    # the bound (W, W'), (f, f') and chart terms are closures; a pickled
    # problem rebuilds them
    thetas = np.linspace(-3.0, 3.0, 7)
    for p in all_problems:
        q = pickle.loads(pickle.dumps(p))
        assert q == p
        assert q.quantities(0.6, 0.8, math) == p.quantities(0.6, 0.8, math)
        assert q.shape_f(0.6, 0.8) == p.shape_f(0.6, 0.8)
        assert q.chart_terms(-0.4) == p.chart_terms(-0.4)
        for a, b in zip(q.chart_terms(thetas), p.chart_terms(thetas)):
            assert np.array_equal(a, b)


def test_chart_assignment(pyr2, spa3, pla3):
    assert pyr2.chart == pr.HALF_CIRCLE
    assert spa3.chart == pr.HALF_CIRCLE
    assert pla3.chart == pr.QUARTER_CIRCLE


def test_shape_domain_endpoints(pyr2, spa3, pla3):
    # half-circle problems use (-pi/2, pi/2), quarter uses (0, pi/2)
    assert (pyr2.phi_a, pyr2.phi_b) == (-math.pi / 2.0, math.pi / 2.0)
    assert (spa3.phi_a, spa3.phi_b) == (-math.pi / 2.0, math.pi / 2.0)
    assert (pla3.phi_a, pla3.phi_b) == (0.0, math.pi / 2.0)


def test_W_equals_f_times_V(all_problems):
    # W regularizes the simple pole of V: W = f V away from the domain ends
    for p in all_problems:
        phis = np.linspace(p.phi_a + 0.05, p.phi_b - 0.05, 200)
        v = pr.potential(p, phis, "V")
        w = pr.potential(p, phis, "W")
        f = pr.potential(p, phis, "f")
        assert np.max(np.abs(f * v - w)) < 1e-12 * np.max(np.abs(w))


def _closed_form_v(p, phi):
    """V and V' of a problem from their own closed forms, on an array of
    phi: the reference for the V = W / f route of potential."""
    s, c = np.sin(phi), np.cos(phi)
    s4 = p.s_n / 4.0
    if p.kind == pr.PYRAMIDAL:
        d = 1.0 + (p.n / p.mu) * s * s
        return (s4 / c + p.mu / np.sqrt(d),
                s4 * s / (c * c) - p.n * s * c / d**1.5)
    k = np.arange(1, p.n + 1)[:, None]
    if p.kind == pr.SPATIAL:
        ck = np.cos(np.pi * (2.0 * k - 1.0) / (2.0 * p.n))
        sig = np.sqrt(1.0 - (ck * c) ** 2)
        return (s4 / c + 0.25 * np.sum(1.0 / sig, axis=0),
                s4 * s / (c * c)
                - 0.25 * s * c * np.sum(ck**2 / sig**3, axis=0))
    cl = np.cos(np.pi * (2.0 * k - 1.0) / p.n)
    d = 1.0 / np.sqrt(1.0 - 2.0 * s * c * cl)
    with np.errstate(divide="ignore"):
        return (s4 * (1.0 / c + 1.0 / s) + np.sum(d, axis=0),
                s4 * (s / (c * c) - c / (s * s))
                + np.cos(2.0 * phi) * np.sum(cl * d**3, axis=0))


def test_V_from_W_matches_closed_form(all_problems):
    for p in all_problems + [pr.pyramidal(5, 0.3)]:
        phis = np.linspace(p.phi_a + 1e-3, p.phi_b - 1e-3, 2001)
        v_ref, vp_ref = _closed_form_v(p, phis)
        v, vp = pr.potential(p, phis, "V"), pr.potential(p, phis, "V'")
        assert np.max(np.abs(v - v_ref) / np.abs(v_ref)) < 1e-12
        # V' vanishes at the critical points: relative to max(1, |V'|)
        assert np.max(np.abs(vp - vp_ref)
                      / np.maximum(1.0, np.abs(vp_ref))) < 1e-12
        # at the arms (and at phi = -0.0 on the planar domain) V and V' are
        # huge or infinite, with the closed form's values and signs
        ends = np.array([p.phi_a, p.phi_b, -0.0])[:2 + (p.kind == pr.PLANAR)]
        for got, want in zip((pr.potential(p, ends, "V"),
                              pr.potential(p, ends, "V'")),
                             _closed_form_v(p, ends)):
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            assert np.array_equal(np.sign(got), np.sign(want))
            fin = np.isfinite(want)
            assert np.all(np.abs(got[fin] - want[fin])
                          <= 1e-12 * np.abs(want[fin]))
    assert np.isinf(pr.potential(all_problems[-1], 0.0, "V"))


def test_W_positive_and_finite_at_ends(all_problems):
    for p in all_problems:
        phis = np.linspace(p.phi_a, p.phi_b, 101)
        w = pr.potential(p, phis, "W")
        assert np.all(np.isfinite(w))
        assert np.all(w > 0.0)


def test_W_endpoint_values(pyr2, spa3, pla10):
    # arm limits: W(pi/2) = S_n/4 for the axial families
    assert pr.potential(pyr2, math.pi / 2.0, "W") == pytest.approx(0.25, abs=1e-14)
    assert pr.potential(spa3, math.pi / 2.0, "W") == pytest.approx(
        pr.csc_sum(3) / 4.0, abs=1e-13
    )
    # planar ring: both ends are binary-cluster limits, W > 0
    assert pr.potential(pla10, 0.0, "W") > 0.0
    assert pr.potential(pla10, math.pi / 2.0, "W") > 0.0


def test_derivative_quantities_match_finite_differences(all_problems, rng):
    h = 1e-6
    for p in all_problems:
        lo = p.phi_a + 0.02
        hi = p.phi_b - 0.02
        phis = rng.uniform(lo, hi, 100)
        for base, deriv in (("V", "V'"), ("W", "W'")):
            fd = (pr.potential(p, phis + h, base) - pr.potential(p, phis - h, base)) / (
                2.0 * h
            )
            got = pr.potential(p, phis, deriv)
            scale = np.maximum(1.0, np.abs(got))
            assert np.max(np.abs(fd - got) / scale) < 1e-7


def test_F_definition(all_problems):
    for p in all_problems:
        phis = np.linspace(p.phi_a + 0.1, p.phi_b - 0.1, 50)
        f = pr.potential(p, phis, "f")
        w = pr.potential(p, phis, "W")
        big_f = pr.potential(p, phis, "F")
        assert np.max(np.abs(big_f - f / np.sqrt(w))) < 1e-14


def test_potential_rejects_unknown_quantity(pyr2):
    with pytest.raises(DomainError):
        pr.potential(pyr2, 0.3, "Q")


def test_scalar_phi_returns_float(pyr2):
    out = pr.potential(pyr2, 0.3, "V")
    assert isinstance(out, float)


# critical points: frozen phi values from the oracle run
CRIT = {
    "pyr2": dict(phi_m=0.0, phi_R=0.7853981633974483,
                 V_mid=1.25, V_phiR=1.0606601717798214),
    "pyr3": dict(phi_m=0.0, phi_R=0.6154797086703875,
                 V_mid=1.5773502691896257, V_phiR=1.414213562373095),
    "spa3": dict(phi_m=0.0, phi_R=0.6154797086703874,
                 V_mid=1.827350269189626, V_phiR=1.664213562373095),
    "pla3": dict(phi_m=math.pi / 4.0, phi_R=0.8225334166455189,
                 V_mid=5.168527067788189, V_phiR=5.16850956992291),
    "pla10": dict(phi_m=math.pi / 4.0, phi_R=1.0721536129673381,
                  V_mid=28.09907603273359, V_phiR=24.872699127170492),
}


def test_critical_point_layout(all_problems):
    for p, key in zip(all_problems, ("pyr2", "pyr3", "spa3", "pla3", "pla10")):
        cps = pr.critical_points(p)
        want = CRIT[key]
        assert cps.count == 3
        assert cps.phi_m == pytest.approx(want["phi_m"], abs=1e-10)
        assert cps.phi_R == pytest.approx(want["phi_R"], abs=1e-10)
        # symmetric pair about the midpoint shape
        assert cps.phi_L == pytest.approx(2.0 * want["phi_m"] - want["phi_R"],
                                          abs=1e-10)
        # middle point is the local max of V (V'' < 0), flanks are minima
        signs = [s for _, s in cps.points]
        assert signs == [1, -1, 1]
        assert pr.potential(p, cps.phi_m, "V") == pytest.approx(
            want["V_mid"], rel=1e-12)
        assert pr.potential(p, cps.phi_R, "V") == pytest.approx(
            want["V_phiR"], rel=1e-12)


def test_critical_points_searched_once_per_problem(monkeypatch):
    from schubart import conditions, dynamics, manifolds

    calls = []
    search = pr.critical_points

    def counted(p, grid=10000):
        calls.append(grid)
        return search(p, grid)

    monkeypatch.setattr(pr, "critical_points", counted)
    p = pr.pyramidal(2)
    conditions.condition_report(p)
    manifolds.landmark_values(p)
    dynamics.theta_star(p)
    assert calls == [10000]
    assert p.critical.phi_R == pytest.approx(CRIT["pyr2"]["phi_R"], abs=1e-10)


def test_phi_R_closed_form_matches_numeric():
    for n in range(2, 21):
        closed = pr.phi_R_closed_form(n)
        numeric = pr.critical_points(pr.pyramidal(n)).phi_R
        assert abs(closed - numeric) < 1e-8


def test_phi_R_closed_form_mu_variants():
    # oracle: pyr2 at mu=0.5
    assert pr.phi_R_closed_form(2, mu=0.5) == pytest.approx(
        0.659058035826409, abs=1e-12)
    got = pr.critical_points(pr.pyramidal(2, mu=0.5)).phi_R
    assert abs(pr.phi_R_closed_form(2, mu=0.5) - got) < 1e-8


def test_pyramidal_critical_transition_at_472():
    # off-axis pair exists while S_n < 4n: last n is 472
    assert pr.csc_sum(472) < 4 * 472
    assert pr.csc_sum(473) > 4 * 473
    assert pr.phi_R_closed_form(472) == pytest.approx(
        0.000358837422201314, rel=1e-9)
    with pytest.raises(DomainError):
        pr.phi_R_closed_form(473)


def test_pyramidal_past_transition_has_single_critical_point():
    cps = pr.critical_points(pr.pyramidal(473), grid=40000)
    assert cps.count == 1
    assert cps.phi_L is None and cps.phi_R is None
    assert cps.phi_m == pytest.approx(0.0, abs=1e-9)
    # the merged axis point is a minimum
    assert cps.points[0][1] == 1

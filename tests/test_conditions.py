"""Comparison curves, elliptic integrals, and the N-condition reports."""

import math

import numpy as np
import pytest
import scipy.special as sps

import schubart.conditions as cond
import schubart.manifolds as mf
import schubart.problems as pr
from schubart.errors import BoundTooWeakError, DivergenceError, DomainError

# endpoints of the true-drift comparison curve, mpmath oracle (50 digits)
G3_ENDPOINTS = {
    ("pyramidal", 2): -1.9450211540689977,
    ("pyramidal", 3): -1.232870177435441,
    ("pyramidal", 4): -0.9930251205108567,
    ("spatial-double-polygon", 2): -1.7148362424591592,
    ("spatial-double-polygon", 3): -1.411246246990191,
    ("spatial-double-polygon", 4): -1.283404247501296,
    ("spatial-double-polygon", 10): -1.0649958241061293,
}

G2_ENDPOINT = -1.3157072212678875  # mpmath oracle
CERT_INTEGRAL = 1.3798750230747159  # mpmath oracle, beta_hat = -1.32

# (K, E) at selected parameters, mpmath oracle
ELLIPTIC_REF = {
    0.5: (1.8540746773013719, 1.3506438810476755),
    0.9: (2.5780921133481733, 1.1047747327040733),
    -1.0: (1.3110287771460598, 1.9100988945138562),
}


def _make(kind, n):
    return {"pyramidal": pr.pyramidal,
            "spatial-double-polygon": pr.spatial,
            "planar-double-polygon": pr.planar}[kind](n)


# -- comparison curves ---------------------------------------------------------


@pytest.mark.parametrize("kind,n", sorted(G3_ENDPOINTS))
def test_g3_endpoints_frozen(kind, n):
    res = cond.integrate_g(_make(kind, n), "g3")
    assert res.kind == "g3"
    assert abs(res.endpoint_phi - math.pi / 2.0) < 1e-12
    assert abs(res.endpoint_g - G3_ENDPOINTS[kind, n]) < 2.5e-10


def test_g1_matches_exact_solution(pyr2):
    # g1 solves the driftless equation exactly: g = -sqrt(2 cos phi), taken
    # in u = sqrt(pi/2 - phi) as -sqrt(2 sin(u^2)) so that the arm sample
    # phi = fl(pi/2) reads 0 and not the rounding of cos there
    res = cond.integrate_g(pyr2, "g1")
    u = np.sqrt(np.pi / 2.0 - res.phis)
    exact = -np.sqrt(2.0 * np.sin(u ** 2))
    assert float(np.max(np.abs(res.gs - exact))) < 1e-6
    assert abs(res.endpoint_g) < 1e-6


def test_g2_endpoint_frozen(pyr2):
    res = cond.integrate_g(pyr2, "g2")
    assert abs(res.endpoint_g - G2_ENDPOINT) < 1e-8


def test_g2_is_problem_independent(pyr2, spa3):
    # the constant-drift curve never consults the potential
    a = cond.integrate_g(pyr2, "g2").endpoint_g
    b = cond.integrate_g(spa3, "g2").endpoint_g
    assert abs(a - b) < 1e-12


def test_g3_seed_values(pyr2):
    res = cond.integrate_g(pyr2, "g3")
    assert abs(res.phis[0] - math.pi / 4.0) < 1e-12
    assert abs(res.gs[0] + math.sqrt(2.0 * math.sqrt(2.0))) < 1e-12


def test_g3_above_g2_when_drift_ratio_bounded():
    # where max |W'/W| <= 4/5 holds on [pi/4, pi/2), the constant-drift
    # curve is the lower envelope of the true-drift curve
    for p in [pr.pyramidal(4), pr.pyramidal(6), pr.spatial(7), pr.spatial(10)]:
        phis = np.linspace(math.pi / 4.0, math.pi / 2.0, 20000, endpoint=False)
        ratio = np.max(np.abs(pr.potential(p, phis, "W'")
                              / pr.potential(p, phis, "W")))
        assert ratio <= 0.8
        g2 = cond.integrate_g(p, "g2").endpoint_g
        g3 = cond.integrate_g(p, "g3").endpoint_g
        assert g3 >= g2 - 1e-6


def test_gamma_endpoint_recovers_branch_landmark():
    # gamma integrates the same equation the branch satisfies; its arm
    # value times sqrt(W(pi/2)) is the first landmark speed
    for p in [pr.pyramidal(2), pr.pyramidal(3), pr.spatial(3)]:
        res = cond.integrate_g(p, "gamma")
        v1 = mf.landmark_values(p)["v1"]
        assert abs(res.endpoint_g * math.sqrt(p.s_n / 4.0) - v1) < 1e-6


def test_gamma_below_g1(pyr2, pyr3):
    # the branch curve starts below g1 at the corner and stays below
    for p in (pyr2, pyr3):
        res = cond.integrate_g(p, "gamma")
        g1_exact = -np.sqrt(2.0 * np.clip(np.cos(res.phis), 0.0, None))
        assert np.all(res.gs <= g1_exact + 1e-8)


def test_gamma_coincides_with_g3_for_pyr2(pyr2):
    # n = 2 pyramidal puts the off-midpoint critical angle exactly at
    # pi/4, so the branch curve and g3 solve the same IVP
    a = cond.integrate_g(pyr2, "gamma").endpoint_g
    b = cond.integrate_g(pyr2, "g3").endpoint_g
    assert abs(a - b) < 1e-6


def test_gamma_needs_half_circle_chart(pla3):
    with pytest.raises(DomainError):
        cond.integrate_g(pla3, "gamma")


def test_gamma_needs_off_midpoint_angle():
    with pytest.raises(DomainError):
        cond.integrate_g(pr.pyramidal(473), "gamma")


def test_unknown_kind_rejected(pyr2):
    with pytest.raises(DomainError):
        cond.integrate_g(pyr2, "g4")


@pytest.mark.parametrize("kind", cond.G_KINDS)
def test_curve_is_stored(pyr2, kind):
    # 513 samples from the seed angle up to the arm, the last one its end
    res = cond.integrate_g(pyr2, kind)
    assert res.phis.shape == res.gs.shape
    assert len(res.phis) == 513
    assert np.all(np.diff(res.phis) > 0)
    seed_phi, _ = cond._g_initial(pyr2, kind)
    assert abs(res.phis[0] - seed_phi) < 1e-12
    assert abs(res.phis[-1] - math.pi / 2.0) < 1e-12


# -- elliptic integrals --------------------------------------------------------


@pytest.mark.parametrize("m", sorted(ELLIPTIC_REF))
def test_elliptic_frozen(m):
    k, e = cond.elliptic(m)
    kr, er = ELLIPTIC_REF[m]
    assert abs(k - kr) < 1e-12
    assert abs(e - er) < 1e-12


@pytest.mark.parametrize("m", [-1.0, -0.5, 0.0, 0.5, 0.9, 0.99])
def test_elliptic_routes_agree(m):
    kq, eq = cond.elliptic(m, method="quadrature")
    ka, ea = cond.elliptic(m, method="agm")
    assert abs(kq - ka) <= 1e-10
    assert abs(eq - ea) <= 1e-10


@pytest.mark.parametrize("m", [-1.0, -0.5, 0.0, 0.5, 0.9])
def test_elliptic_against_scipy(m):
    k, e = cond.elliptic(m)
    assert abs(k - sps.ellipk(m)) < 1e-12
    assert abs(e - sps.ellipe(m)) < 1e-12


def test_elliptic_at_zero():
    k, e = cond.elliptic(0.0)
    assert abs(k - math.pi / 2.0) < 1e-14
    assert abs(e - math.pi / 2.0) < 1e-14


def test_elliptic_divergence_at_one():
    with pytest.raises(DivergenceError):
        cond.elliptic(1.0)
    with pytest.raises(DivergenceError):
        cond.elliptic(1.0, method="agm")
    assert cond.elliptic_e(1.0) == 1.0


def test_elliptic_domain_checks():
    with pytest.raises(DomainError):
        cond.elliptic(1.5)
    with pytest.raises(DomainError):
        cond.elliptic(0.5, method="series")
    with pytest.raises(DomainError):
        cond.elliptic(float("nan"))


# -- certificate and spatial bounds --------------------------------------------


def test_v2_certificate_default(pyr2):
    got = cond.v2_certificate(pyr2)
    assert got["beta_hat"] == cond.DEFAULT_BETA
    assert abs(got["integral"] - CERT_INTEGRAL) < 1e-6
    assert got["lower_bound_g_at_0"] > 0.0
    assert got["pass"] is True


def test_v2_certificate_monotone_in_beta(pyr2):
    # weaker |beta_hat| raises both terms of the certificate
    lo = cond.v2_certificate(pyr2, -1.32)["lower_bound_g_at_0"]
    hi = cond.v2_certificate(pyr2, -1.0)["lower_bound_g_at_0"]
    assert hi > lo


def test_v2_certificate_too_weak(pyr2):
    with pytest.raises(BoundTooWeakError):
        cond.v2_certificate(pyr2, -1.5)


def test_spatial_envelope_values():
    # cot(pi/2) = 0 so the envelope ends at 2 E(0) = pi
    assert abs(cond.spatial_envelope(math.pi / 2.0) - math.pi) < 1e-12
    # the quarter-point value 2 E(-1) is the constant in the ceiling
    assert 3.81 < cond.spatial_envelope(math.pi / 4.0) < 3.83
    with pytest.raises(DomainError):
        cond.spatial_envelope(0.0)


@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_spatial_Wprime_bound(n):
    got = cond.spatial_Wprime_bound(n)
    assert got["pass"] is True
    assert got["max_4Wprime"] < got["bound"]
    assert abs(got["bound"] - cond.SPATIAL_DELTA * n / math.pi) < 1e-12


def test_spatial_Wprime_bound_rejects_small_n():
    with pytest.raises(DomainError):
        cond.spatial_Wprime_bound(1)


# -- condition reports ---------------------------------------------------------


def test_report_pyr2(pyr2):
    rep = cond.condition_report(pyr2)
    st = {k: v["status"] for k, v in rep.entries.items()}
    assert st == {"N1": "pass", "N2": "pass", "N3": "fail",
                  "N3prime": "fail", "N4": "pass"}
    # the endpoint sits well below the default beta
    ev = dict(rep.entries["N3prime"]["evidence"])
    assert ev["g3_endpoint"] < ev["beta"]


def test_report_pyr4():
    rep = cond.condition_report(pr.pyramidal(4))
    st = {k: v["status"] for k, v in rep.entries.items()}
    assert st == {"N1": "pass", "N2": "pass", "N3": "pass",
                  "N3prime": "pass", "N4": "pass"}


def test_report_spa3_vs_spa4(spa3):
    assert cond.check_condition(spa3, "N3prime")["status"] == "fail"
    assert cond.check_condition(pr.spatial(4), "N3prime")["status"] == "pass"
    assert cond.check_condition(pr.spatial(7), "N3")["status"] == "pass"


def test_report_planar(pla3):
    rep = cond.condition_report(pla3)
    st = {k: v["status"] for k, v in rep.entries.items()}
    assert st == {"N1": "not-applicable", "N2": "pass",
                  "N3": "not-applicable", "N3prime": "not-applicable",
                  "N4": "pass"}
    assert rep.entries["N1"]["evidence"] == []


def test_report_evaluates_the_N1_grid_once(pyr2, monkeypatch):
    # N3 reads N1's status: the report hands N3 its N1 entry, and N3 alone
    # computes N1 itself; both give the same N3 entry
    calls = []
    check_n1 = cond._check_N1
    monkeypatch.setattr(cond, "_check_N1",
                        lambda p: calls.append(p) or check_n1(p))
    rep = cond.condition_report(pyr2)
    assert len(calls) == 1
    assert cond.check_condition(pyr2, "N3") == rep.entries["N3"]
    assert len(calls) == 2


def test_custom_beta_flips_N3prime(pyr2):
    # a generous beta accepts the deep pyr2 endpoint
    got = cond.check_condition(pyr2, "N3prime", beta=-2.0)
    assert got["status"] == "pass"


def test_unknown_condition(pyr2):
    with pytest.raises(DomainError):
        cond.check_condition(pyr2, "N5")


def test_evidence_is_named_floats(pyr2):
    rep = cond.condition_report(pyr2)
    for entry in rep.entries.values():
        assert entry["status"] in ("pass", "fail", "not-applicable")
        assert isinstance(entry["method"], str)
        for name, value in entry["evidence"]:
            assert isinstance(name, str)
            assert isinstance(value, float)


def test_N1_evidence_has_margin(pyr2):
    got = cond.check_condition(pyr2, "N1")
    ev = dict(got["evidence"])
    assert ev["max_Wprime_grid"] <= 1e-12
    assert 0.0 < ev["between_node_margin"] < 1e-3


def test_N4_matches_manifold_separation(pyr2):
    got = cond.check_condition(pyr2, "N4")
    ev = dict(got["evidence"])
    assert abs(ev["separation"] - mf.check_N4(pyr2)["separation"]) < 1e-15

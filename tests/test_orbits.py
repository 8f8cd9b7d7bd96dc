"""Family searches against frozen roots, plus the shooting plumbing."""

import math
from dataclasses import replace

import numpy as np
import pytest

import schubart.dynamics as dyn
import schubart.manifolds as mf
import schubart.orbits as ob
import schubart.problems as pr
from schubart.dynamics import State
from schubart.errors import AmbiguousBracketError, DomainError, OrbitNotFoundError
from schubart.odeint import Controls, EventSpec, field_for, integrate

# converged seed parameters from an independent shooting implementation
# (scipy solve_ivp + brentq at rtol 1e-12)
ROOTS = {
    ("pyr", "B", 0): 0.5555225360034305,
    ("pyr", "B", 1): 1.0924446915541828,
    ("pyr", "B", 2): 1.410768388267082,
    ("pyr", "Z1", 1): -2.611189559660501,
    ("pyr", "Z1", 2): -0.7800731143314664,
    ("pyr", "ZB", (1, 1)): -2.6285115621125037,
    ("pyr", "LessSymB", (2, 1)): 1.419340395820314,
    ("pyr", "Z5", (1, 1)): -2.6111895596606516,
    ("pyr", "Z5", (1, 2)): -2.6365009025496224,
    ("spa", "B", 0): 0.8050045572197035,
    ("pla", "B", 0): 15.600113341949257,
}

_CACHE = {}


def _found(problem, key, spec, lo, hi, n=9):
    if key not in _CACHE:
        _CACHE[key] = ob.find_orbit(
            problem, spec, {"param_lo": lo, "param_hi": hi, "grid_points": n})
    return _CACHE[key]


@pytest.fixture
def b0(pyr2):
    return _found(pyr2, ("pyr", "B", 0), ob.FamilySpec("B", 0), 0.4, 0.7)


# -- specs and signatures --------------------------------------------------


def test_family_spec_validation():
    ob.FamilySpec("B", 0)
    ob.FamilySpec("Z1", 3)
    ob.FamilySpec("Z5", 1, 1)
    ob.FamilySpec("PP", 1, 1)
    # Z2 was PP(1,1) under a second name
    for bad in [("B", -1, None), ("B", None, None), ("B", 1, 1),
                ("ZB", 0, 1), ("Z5", 1, 0), ("LessSymB", 1, None),
                ("Z2", None, None), ("Q", 1, None)]:
        with pytest.raises(DomainError):
            ob.FamilySpec(bad[0], bad[1], bad[2])


def test_family_spec_str():
    assert str(ob.FamilySpec("B", 2)) == "B(2)"
    assert str(ob.FamilySpec("LessSymB", 2, 1)) == "LessSymB(2,1)"
    assert str(ob.FamilySpec("PP", 1, 1)) == "PP(1,1)"


def _assert_no_line_skipped(lines):
    # a continuous shot crosses the same line again or a neighbouring one
    assert all(abs(b - a) <= 1 for a, b in zip(lines, lines[1:])), lines


def test_line_kind():
    assert ob.line_kind(0) == "euler"
    assert ob.line_kind(-2) == "euler"
    assert ob.line_kind(1) == "partial"
    assert ob.line_kind(-3) == "partial"


def test_prescribed_signature_labels():
    assert ob.prescribed_signature(ob.FamilySpec("B", 0)) == ("euler(0)",)
    assert ob.prescribed_signature(ob.FamilySpec("Z5", 1, 2)) == (
        "partial(-1)", "euler(0)", "partial(1)", "partial(1)", "brake")
    assert ob.prescribed_signature(ob.FamilySpec("B", 1)) == (
        "partial(-1)", "euler(-2)")


# -- seeds -------------------------------------------------------------------


@pytest.mark.parametrize("r0", [0.1, 1.0, 10.0])
def test_seed_on_S_is_on_shell(pyr2, r0):
    st = ob.seed_state(pyr2, ob.LOCUS_S, r0)
    assert st.v == 0.0 and st.angle == -math.pi / 2.0
    assert abs(dyn.energy_residual(pyr2, st)) < 1e-14


def test_seed_S_speed_is_r_independent(pyr2):
    a = ob.seed_state(pyr2, ob.LOCUS_S, 0.1)
    b = ob.seed_state(pyr2, ob.LOCUS_S, 10.0)
    assert a.w == b.w
    assert abs(a.w - math.sqrt(pyr2.s_n)) < 1e-12


def test_seed_on_Z(pyr2):
    st = ob.seed_state(pyr2, ob.LOCUS_Z, 0.0)
    assert abs(st.r - 1.25) < 1e-12
    assert st.v == 0.0 and st.w == 0.0
    assert abs(dyn.energy_residual(pyr2, st)) < 1e-14


def test_seed_Z_at_theta_star_is_homothetic_brake(pyr2):
    ts = dyn.theta_star(pyr2)
    st = ob.seed_state(pyr2, ob.LOCUS_Z, ts)
    # no shape motion from a critical shape: theta and w stay put
    rhs = dyn.newcoords_rhs(pyr2, st)
    assert abs(rhs[2]) < 1e-12 and abs(rhs[3]) < 1e-12


def test_seed_domain_errors(pyr2):
    with pytest.raises(DomainError):
        ob.seed_state(pyr2, ob.LOCUS_S, 0.0)
    with pytest.raises(DomainError):
        ob.seed_state(pyr2, ob.LOCUS_Z, -math.pi / 2.0)
    with pytest.raises(DomainError):
        ob.seed_state(pyr2, "ZVC", 1.0)


# -- found orbits against frozen roots --------------------------------------


_TABLE = [
    ("pyr", ob.FamilySpec("B", 0), 0.4, 0.7, "quarter"),
    ("pyr", ob.FamilySpec("B", 1), 0.9, 1.3, "quarter"),
    ("pyr", ob.FamilySpec("B", 2), 1.3, 1.5, "quarter"),
    ("pyr", ob.FamilySpec("Z1", 1), -2.66, -2.56, "quarter"),
    ("pyr", ob.FamilySpec("Z1", 2), -0.85, -0.70, "quarter"),
    ("pyr", ob.FamilySpec("ZB", 1, 1), -2.66, -2.60, "quarter"),
    ("pyr", ob.FamilySpec("LessSymB", 2, 1), 1.38, 1.46, "half"),
    ("pyr", ob.FamilySpec("Z5", 1, 1), -2.66, -2.56, "half"),
    ("pyr", ob.FamilySpec("Z5", 1, 2), -2.66, -2.61, "half"),
    ("spa", ob.FamilySpec("B", 0), 0.6, 1.0, "quarter"),
    ("pla", ob.FamilySpec("B", 0), 12.0, 19.0, "quarter"),
]


@pytest.mark.parametrize("which,spec,lo,hi,segment", _TABLE,
                         ids=lambda v: str(v))
def test_family_roots(request, which, spec, lo, hi, segment):
    problem = request.getfixturevalue(
        {"pyr": "pyr2", "spa": "spa3", "pla": "pla10"}[which])
    idx = spec.i if spec.j is None else (spec.i, spec.j)
    key = (which, spec.family, idx)
    orb = _found(problem, key, spec, lo, hi)
    assert abs(orb.seed_parameter - ROOTS[key]) < 1e-8
    assert orb.residual <= 1e-8
    # a shot within its floor ends the Brent search, so the floor must sit
    # far below the residual bound or it would loosen the root
    assert 0.0 < orb.residual_floor <= 1e-12
    assert orb.quarter_or_half == segment
    factor = 4.0 if segment == "quarter" else 2.0
    assert abs(orb.full_period_s
               - factor * orb.fundamental.end_s) < 1e-12
    got = ob.verify_periodicity(orb)
    max_r = orb.reconstructed.y[0].max()
    assert got["closure_error"] <= 1e-6
    assert got["energy_drift"] <= 1e-8 * (1.0 + max_r)


def test_energy_drift_is_the_largest_sample_residual(b0, pyr2):
    # the drift taken over the sample array at once equals the largest
    # scalar energy residual of the same run
    period = b0.full_period_s
    traj = integrate(field_for(pyr2), b0.seed, (), Controls(
        max_s=period, sample_ds=period / 1024.0))
    want = max(abs(dyn.energy_residual(pyr2, st)) for _, st in traj)
    got = ob.verify_periodicity(b0)["energy_drift"]
    assert abs(got - want) <= 1e-15


def test_Z5_11_is_Z1_1_retraced(pyr2):
    z1 = _found(pyr2, ("pyr", "Z1", 1), ob.FamilySpec("Z1", 1), -2.66, -2.56)
    z5 = _found(pyr2, ("pyr", "Z5", (1, 1)), ob.FamilySpec("Z5", 1, 1),
                -2.66, -2.56)
    assert abs(z1.seed_parameter - z5.seed_parameter) < 1e-9
    assert abs(z1.full_period_s - z5.full_period_s) < 1e-7


def test_Z_family_brake_property(pyr2):
    # v = w = 0 at the start and at the half-period image
    for key, spec, lo, hi in [
            (("pyr", "Z1", 1), ob.FamilySpec("Z1", 1), -2.66, -2.56),
            (("pyr", "Z5", (1, 2)), ob.FamilySpec("Z5", 1, 2), -2.66, -2.61)]:
        orb = _found(pyr2, key, spec, lo, hi)
        half = orb.full_period_s / 2.0
        s, (_, v, _, w) = orb.reconstructed.s, orb.reconstructed.y
        k = np.argmin(np.abs(s - half))
        assert v[0] ** 2 + w[0] ** 2 <= 1e-16
        assert v[k] ** 2 + w[k] ** 2 <= 1e-16


def test_orthogonal_hit_simultaneity(b0):
    end = b0.fundamental.end_state
    assert abs(end.v) <= 1e-8
    assert abs(end.angle) <= 1e-10


def test_signature_reproduced_at_root(pyr2, b0):
    rec = ob._shot(pyr2, ob._recipe_for(ob.FamilySpec("B", 0)),
                   b0.seed_parameter)
    assert rec.lines == (0,)
    _assert_no_line_skipped(rec.lines)
    assert isinstance(rec.terminal_state, State)
    assert abs(rec.residual) < 1e-8
    assert abs(rec.terminal_state.angle) < 1e-9


def test_reconstruction_symmetry(b0):
    # each mirrored sample is the sigma image of its partner
    s, y = b0.reconstructed.s, b0.reconstructed.y
    n = len(b0.fundamental.s)
    for k in (1, n // 3, n - 2):
        a, b = k, 2 * (n - 1) - k
        assert abs((s[a] + s[b]) - 2.0 * s[n - 1]) < 1e-12
        assert abs(y[0, b] - y[0, a]) < 1e-12
        assert abs(y[1, b] + y[1, a]) < 1e-12
        assert abs(y[2, b] + y[2, a]) < 1e-12  # mirror about theta=0


def test_reconstruction_endpoints(pyr2, b0):
    # mirrored families close one full cover turn away; retraced families
    # return to the seed exactly
    end_b = b0.reconstructed.end_state
    assert abs(end_b.angle - b0.seed.angle - 2.0 * math.pi) < 1e-12
    assert abs(end_b.r - b0.seed.r) < 1e-12
    z1 = _found(pyr2, ("pyr", "Z1", 1), ob.FamilySpec("Z1", 1), -2.66, -2.56)
    end_z = z1.reconstructed.end_state
    assert end_z == z1.seed or (
        abs(end_z.angle - z1.seed.angle) < 1e-15
        and abs(end_z.r - z1.seed.r) < 1e-15)


def test_b0_line_events_per_period(pyr2, b0):
    # one orthogonal line event per quarter: four per period, alternating
    # central and partial lines (run a hair past T so the closing crossing,
    # which sits exactly at the endpoint, still registers)
    ctl = Controls(max_s=b0.full_period_s * (1.0 + 1e-6))
    events = [EventSpec.angle(m * math.pi / 2.0) for m in range(-2, 5)]
    traj = integrate(field_for(pyr2), b0.seed, events, ctl)
    hits = [h for h in traj.events if h.kind == "angle-crossing"]
    assert len(hits) == 4
    ms = [int(round(h.state.angle / (math.pi / 2.0))) for h in hits]
    assert [m % 2 for m in ms] == [0, 1, 0, 1]
    assert all(abs(h.state.v) < 1e-6 for h in hits)


def test_monotone_residual_across_final_bracket(pyr2, b0):
    recipe = ob._recipe_for(ob.FamilySpec("B", 0))
    root = b0.seed_parameter
    vals = [ob._shot(pyr2, recipe, root + d).residual
            for d in np.linspace(-5e-7, 5e-7, 5)]
    assert all(v is not None for v in vals)
    diffs = np.diff(vals)
    assert np.all(diffs > 0) or np.all(diffs < 0)


@pytest.mark.parametrize("spec,lo,hi", [(ob.FamilySpec("B", 2), 1.3, 1.5),
                                        (ob.FamilySpec("B", 0), 0.4, 0.7)],
                         ids=lambda v: str(v))
def test_brent_stops_at_the_first_shot_within_its_floor(pyr2, monkeypatch,
                                                        spec, lo, hi):
    shot, recs = ob._shot, []

    def recorded(problem, recipe, param):
        recs.append(shot(problem, recipe, param))
        return recs[-1]

    monkeypatch.setattr(ob, "_shot", recorded)
    orb = ob.find_orbit(pyr2, spec,
                        {"param_lo": lo, "param_hi": hi, "grid_points": 9})
    within = [abs(rec.residual) <= rec.floor for rec in recs]
    assert within.index(True) == len(recs) - 1
    assert orb.root_shots == len(recs)
    assert orb.seed_parameter == recs[-1].param
    assert orb.residual_floor == recs[-1].floor
    # the last sign-change bracket, with the root at one end
    (p_lo, r_lo), (p_hi, r_hi) = orb.bracket
    assert r_lo * r_hi < 0.0
    assert p_lo < p_hi
    assert orb.seed_parameter in (p_lo, p_hi)


def test_fundamental_segment_is_flown_on_first_read(pyr2, monkeypatch):
    sample_ds = []

    def recorded(rhs, seed, events=(), controls=None):
        sample_ds.append(controls.sample_ds)
        return integrate(rhs, seed, events, controls)

    monkeypatch.setattr(ob, "integrate", recorded)
    orb = ob.find_orbit(pyr2, ob.FamilySpec("B", 0),
                        {"param_lo": 0.4, "param_hi": 0.7, "grid_points": 9})
    # the root shots flew, and nothing sampled
    assert sample_ds and not any(sample_ds)
    n = len(sample_ds)
    tau = orb.full_period_s / 4.0
    assert orb.fundamental.end_s == tau
    assert sample_ds[n:] == [tau / 512.0]
    # flown once: the reconstruction and later reads reuse it
    assert orb.reconstructed.end_s > orb.fundamental.end_s
    assert len(sample_ds) == n + 1


@pytest.mark.parametrize("key,spec,lo,hi", [
    (("pyr", "B", 0), ob.FamilySpec("B", 0), 0.4, 0.7),
    (("pyr", "Z1", 1), ob.FamilySpec("Z1", 1), -2.66, -2.56)],
    ids=["B0", "Z1_1"])
def test_fundamental_samples_lie_on_an_exact_grid(pyr2, key, spec, lo, hi):
    # 511 interior samples at k tau/512 and the end state at tau: no
    # near-duplicate of the end for the reconstruction to mirror
    fund = _found(pyr2, key, spec, lo, hi).fundamental
    assert len(fund.s) == 513
    assert np.all(np.abs(np.diff(fund.s) - fund.end_s / 512.0) <= 1e-12)


def test_lazy_segment_equals_an_eager_flight(pyr2, b0):
    recipe = ob._recipe_for(b0.family)
    tau = b0.full_period_s / 4.0
    eager = ob._fly(pyr2, b0.seed, recipe, Controls(
        rtol=1e-11, atol=1e-12, max_s=tau, sample_ds=tau / 512.0))
    fund = b0.fundamental
    assert np.array_equal(fund.s, eager.s)
    assert np.array_equal(fund.y, eager.y)
    assert [(h.s, h.spec) for h in fund.events] == [
        (h.s, h.spec) for h in eager.events]
    assert fund.termination == eager.termination
    s, y = eager.s, eager.y
    for closure in recipe.closure.split("-"):
        s, y = ob._extend(s, y, closure)
    assert np.array_equal(b0.reconstructed.s, s)
    assert np.array_equal(b0.reconstructed.y, y)


def test_perturbed_seed_breaks_closure(pyr2, b0):
    fake = replace(
        b0, seed=ob.seed_state(pyr2, ob.LOCUS_S, b0.seed_parameter + 1e-3))
    got = ob.verify_periodicity(fake)
    assert got["closure_error"] > 1e-4


# -- scan behavior -----------------------------------------------------------


def test_Z1_0_not_found_for_pyr2(pyr2):
    # the east window's terminal v stays negative on the whole zero
    # velocity curve: no bracket exists for a direct orthogonal hit
    with pytest.raises(OrbitNotFoundError) as err:
        ob.find_orbit(pyr2, ob.FamilySpec("Z1", 0), {"grid_points": 40})
    rows = err.value.scan
    assert len(rows) > 0
    matched = [r for r in rows if r[1] == "matched"]
    assert matched, "scan should reach the brake line somewhere"
    assert all(r[3] < 0.0 for r in matched)


def _misclassify(monkeypatch, faulty):
    """Route ob._shot through a wrapper that reports a pattern mismatch
    wherever faulty(param) holds; returns the list of shot parameters."""
    shot, params = ob._shot, []

    def wrapper(problem, recipe, param):
        params.append(param)
        rec = shot(problem, recipe, param)
        if faulty(param):
            return replace(rec, classification="pattern-mismatch",
                           residual=None)
        return rec

    monkeypatch.setattr(ob, "_shot", wrapper)
    return params


def test_ambiguous_bracket_is_rescanned_locally(pyr2, monkeypatch):
    spec = ob.FamilySpec("B", 0)
    search = {"param_lo": 0.4, "param_hi": 0.7, "grid_points": 9}
    grid = [float(p) for p in ob._grid(ob._recipe_for(spec), 0.4, 0.7, 9)]
    root = ROOTS[("pyr", "B", 0)]
    lo = max(p for p in grid if p < root)
    hi = min(p for p in grid if p > root)

    # the first shot inside the bracket goes wrong, and only that one
    bad = []

    def first_inside(param):
        if not bad and lo < param < hi:
            bad.append(param)
        return param in bad

    params = _misclassify(monkeypatch, first_inside)
    orb = ob.find_orbit(pyr2, spec, search)
    assert len(bad) == 1
    assert abs(orb.seed_parameter - root) < 1e-8
    after_scan = params
    assert all(lo <= p <= hi for p in after_scan)
    assert any(abs(p - math.sqrt(lo * hi)) < 1e-12 for p in after_scan)

    # every shot inside the bracket goes wrong: no clean sub-bracket
    monkeypatch.undo()
    _misclassify(monkeypatch, lambda param: lo < param < hi)
    with pytest.raises(AmbiguousBracketError):
        ob.find_orbit(pyr2, spec, search)


def test_block_scan_matches_scalar_shots(request, pyr2):
    # the lockstep block against one scalar shot per seed: vectorized sin
    # and cos are not bit-identical to the scalar ones, so residuals may
    # differ in the last digits, but nothing else may
    windows = [(which, spec, lo, hi, 9) for which, spec, lo, hi, _ in _TABLE]
    windows.append(("pyr", ob.FamilySpec("B", 0), 1e-3, 1e2, 60))
    for which, spec, lo, hi, n in windows:
        problem = request.getfixturevalue(
            {"pyr": "pyr2", "spa": "spa3", "pla": "pla10"}[which])
        recipe = ob._recipe_for(spec)
        params = [float(p) for p in ob._grid(recipe, lo, hi, n)]
        rows = ob._scan(problem, recipe, params)
        assert len(rows) == len(params)
        for row, param in zip(rows, params):
            want = ob._shot(problem, recipe, param)
            assert row[:3] == (param, want.classification, want.lines), spec
            if want.residual is None:
                assert row[3] is None
            else:
                assert np.sign(row[3]) == np.sign(want.residual)
                assert abs(row[3] - want.residual) <= 1e-10


def test_small_r_shots_open_out_on_the_central_line(pyr2):
    # the r -> 0 end of the S locus: the shot reaches the central line
    # still expanding (v > 0), so no orthogonal hit is possible there
    rec = ob._shot(pyr2, ob._recipe_for(ob.FamilySpec("B", 0)), 1e-3)
    assert rec.lines == (0,)
    _assert_no_line_skipped(rec.lines)
    assert isinstance(rec.terminal_state, State)
    assert abs(rec.terminal_state.angle) < 1e-9
    assert rec.residual > 1.0


def test_large_r_shots_stay_bound_near_the_arm(pyr2):
    # at this energy the far end of the S locus is a bound near-binary
    # regime: shots re-cross the seed line instead of escaping
    rec = ob._shot(pyr2, ob._recipe_for(ob.FamilySpec("B", 0)), 95.0)
    assert rec.classification == "pattern-mismatch"
    assert rec.lines == (-1,)


def test_shoot_escape_classification(pla10):
    # a radially energetic interior state rides out along an arm; given
    # enough crossing budget the size threshold fires
    w = dyn.solve_w(pla10, 0.1, 0.0, -0.35)
    # full lines (-9, 9): the watched window is the lines -12..12
    recipe = ob._Recipe(ob.LOCUS_S, (-9,), "line", 9, "mirror")
    traj = ob._fly(pla10, State(0.1, 0.0, -0.35, w), recipe,
                   Controls(max_s=ob.SHOT_MAX_S, max_angle_crossings=600))
    assert ob._fate(traj) == "escape"
    assert len([h for h in traj.events
                if h.kind in ("angle-crossing", "v-zero")]) > 100
    _assert_no_line_skipped([m for _, m in ob._crossings(traj)])


@pytest.mark.parametrize("spec,param", [
    (ob.FamilySpec("B", 0), 5.0),
    (ob.FamilySpec("Z5", 1, 1), ROOTS[("pyr", "Z5", (1, 1))])],
    ids=["B0", "Z5_1_1"])
def test_shots_watch_only_what_the_classifier_reads(pyr2, spec, param):
    # line crossings and escape, and the v zeros only for a brake terminal;
    # both shots pass w zeros, and the B(0) one v zeros, that no
    # classification reads
    recipe = ob._recipe_for(spec)
    traj = ob._fly(pyr2, ob.seed_state(pyr2, recipe.locus, param), recipe,
                   ob._shot_controls(recipe))
    kinds = {h.kind for h in traj.events}
    allowed = {"angle-crossing", "r-exceeds"}
    if recipe.terminal == "brake":
        allowed.add("v-zero")
        assert "v-zero" in kinds
    assert "angle-crossing" in kinds
    assert kinds <= allowed
    assert "w-zero" not in kinds


def test_experimental_pp_reports_b_coincidence(pyr2):
    orb = ob.find_orbit(pyr2, ob.FamilySpec("PP", 1, 1),
                        {"param_lo": 0.4, "param_hi": 0.7, "grid_points": 9})
    assert abs(orb.seed_parameter - ROOTS[("pyr", "B", 0)]) < 1e-6
    assert orb.notes["coincides_with_B"] is True
    assert orb.notes["euler_crossing_min_abs_v"] < 1e-6

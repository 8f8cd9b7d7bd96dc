"""Exit-code contract, output determinism, and subcommand behavior."""

import io
import json
import re
import time
from contextlib import redirect_stdout

import pytest

import schubart.cli as cli
from schubart import __version__


def run(argv):
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse paths
        code = int(exc.code or 0)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text)


# -- exit codes ---------------------------------------------------------------


def test_exit_zero_when_all_pass():
    code, out = run_json(["conditions", "--problem", "pyramidal", "--n", "4"])
    assert code == 0
    assert out["results"]["all_pass_or_na"] is True


def test_exit_two_on_condition_failure():
    code, out = run_json(["conditions", "--problem", "spatial", "--n", "3"])
    assert code == 2
    by_name = {e["name"]: e["status"] for e in out["results"]["conditions"]}
    assert by_name["N3"] == "fail"


def test_planar_reports_not_applicable():
    code, out = run_json(["conditions", "--problem", "planar", "--n", "10"])
    assert code == 0
    by_name = {e["name"]: e["status"] for e in out["results"]["conditions"]}
    assert by_name["N1"] == "not-applicable"
    assert by_name["N3"] == "not-applicable"
    assert by_name["N2"] == "pass"


def test_exit_64_on_bad_problem_parameters(capsys):
    code, _ = run(["conditions", "--problem", "pyramidal", "--n", "1"])
    assert code == 64


@pytest.mark.parametrize("argv", [
    ["conditions", "--problem", "pyramidal", "--n", "4", "--beta", "nan"],
    ["conditions", "--problem", "pyramidal", "--n", "4", "--beta", "inf"],
    ["conditions", "--problem", "pyramidal", "--n", "2", "--mu", "inf"],
    ["orbit", "--family", "B", "--k", "0", "--param-lo", "0.4",
     "--param-hi", "inf"],
], ids=["beta-nan", "beta-inf", "mu-inf", "param-hi-inf"])
def test_exit_64_on_non_finite_numbers(capsys, argv):
    # a nan beta used to print "beta": nan, which is not JSON; an infinite
    # mu or window end ran until the field or the critical points failed
    code, text = run(argv)
    assert code == 64
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_64_on_unknown_subcommand():
    code, _ = run(["frobnicate"])
    assert code == 64


def test_exit_64_on_csv_condition_report():
    code, _ = run(["conditions", "--problem", "pyramidal", "--n", "4",
                   "--format", "csv"])
    assert code == 64


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


# -- config layering ----------------------------------------------------------


def test_config_file_and_flag_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "pyramidal", "n": 4}))
    code, out = run_json(["conditions", "--config", str(path)])
    assert code == 0 and out["config"]["n"] == 4
    # explicit flags beat the file
    code, out = run_json(
        ["conditions", "--config", str(path), "--n", "2"])
    assert out["config"]["n"] == 2
    assert code == 2  # pyramidal n=2 fails N3/N3'


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    # unknown keys (workers is an orbit flag only, not a RunConfig field),
    # malformed JSON, a non-object top level and values of the wrong type
    # for their RunConfig field or outside its flag's choices
    for text in ('{"problem": "pyramidal", "n_bodies": 4}', '{"seed": 1}',
                 '{"n": 4', '[1, 2]', '{"rtol": "1e-9"}', '{"mu": "2"}',
                 '{"n": null}', '{"n": true}', '{"n": 4.0}',
                 '{"problem": 3}', '{"format": "xml"}',
                 '{"problem": "torus"}', '{"workers": 1}'):
        path.write_text(text)
        code, _ = run(["conditions", "--config", str(path)])
        assert code == 64, text
        assert capsys.readouterr().err.startswith("error: "), text
    code, _ = run(["conditions", "--config", str(tmp_path / "missing.json")])
    assert code == 64
    # an int where a float field is, and null where the default is None
    path.write_text('{"mu": 2, "beta": null}')
    code, out = run_json(["table", "sn", "--config", str(path)])
    assert code == 0 and out["config"]["mu"] == 2


def test_exit_64_on_flags_a_subcommand_does_not_read(capsys):
    # the integration settings are orbit flags only, and no subcommand
    # takes a seed
    for argv in (["conditions", "--rtol", "1e-4"],
                 ["branches", "--max-s", "5"],
                 ["table", "g3", "--atol", "1e-9"],
                 ["orbit", "--family", "B", "--k", "0", "--seed", "1"]):
        code, _ = run(argv)
        assert code == 64, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_64_on_both_k_and_i(capsys):
    # --k and --i both name the first index; one of them would go unread
    for argv in (["orbit", "--family", "B", "--k", "0", "--i", "1"],
                 ["orbit", "--family", "B", "--i", "1", "--k", "0"]):
        code, out = run(argv)
        assert code == 64 and out == "", argv
        assert "not allowed with" in capsys.readouterr().err


def test_exit_64_on_unusable_integration_settings(tmp_path, capsys):
    # rtol, atol and max_s must be finite and greater than 0, from a flag
    # or a config file; atol 0 used to spend a shot's whole step budget
    base = ["orbit", "--family", "B", "--k", "0", "--param-lo", "0.5",
            "--param-hi", "0.6", "--grid-points", "3"]
    path = tmp_path / "cfg.json"
    cases = [["--atol", "0"], ["--rtol", "-1"], ["--max-s", "-5"],
             ["--rtol", "nan"], ["--atol", "inf"], ["--max-s", "0"]]
    for text in ('{"atol": 0}', '{"rtol": -1e-9}', '{"max_s": 0.0}'):
        path.write_text(text)
        cases.append(["--config", str(path)])
    for extra in cases:
        t0 = time.perf_counter()
        code, out = run(base + extra)
        assert code == 64, extra
        assert out == ""
        assert "finite and greater than 0" in capsys.readouterr().err, extra
        assert time.perf_counter() - t0 < 5.0, extra


# -- determinism --------------------------------------------------------------


def test_reports_are_reproducible_outside_runtime():
    argv = ["conditions", "--problem", "pyramidal", "--n", "2"]
    _, a = run(argv)
    _, b = run(argv)
    strip = lambda s: re.sub(r'"runtime_seconds": [^,]+,', "", s)
    assert strip(a) == strip(b)
    assert a != strip(a), "runtime stamp should be present"


def test_floats_use_17_significant_digits():
    _, text = run(["conditions", "--problem", "pyramidal", "--n", "4"])
    assert '"atol": 9.9999999999999998e-13' in text
    assert __version__ in text


# -- branches -----------------------------------------------------------------


def test_branches_signs_pyramidal():
    code, out = run_json(["branches", "--problem", "pyramidal", "--n", "2"])
    assert code == 0
    signs = out["results"]["signs"]
    assert (signs["v1"], signs["v2"], signs["v3"]) == ("-", "+", "-")
    assert out["results"]["separated"] is True


def test_branches_signs_planar():
    code, out = run_json(["branches", "--problem", "planar", "--n", "10"])
    signs = out["results"]["signs"]
    assert (signs["v2"], signs["v3"], signs["v4"], signs["v5"]) \
        == ("-", "-", "+", "-")


def test_branches_heavy_apex_flips_v2():
    _, out = run_json(
        ["branches", "--problem", "pyramidal", "--n", "2", "--mu", "3"])
    assert out["results"]["signs"]["v2"] == "-"


def test_branches_csv():
    code, text = run(["branches", "--problem", "pyramidal", "--n", "2",
                      "--format", "csv"])
    header, row = text.strip().split("\n")
    assert header.split(",")[:2] == ["v0", "v1"]
    assert header.split(",")[-1] == "separation_v2_v3"
    assert len(row.split(",")) == len(header.split(","))


# -- orbit --------------------------------------------------------------------


def test_orbit_report_and_trajectory(tmp_path):
    out = tmp_path / "b0.json"
    code, _ = run(["orbit", "--family", "B", "--k", "0",
                   "--param-lo", "0.4", "--param-hi", "0.7",
                   "--grid-points", "9", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    res = report["results"]
    assert res["found"] is True
    assert res["family"] == "B(0)"
    assert res["signature"] == ["euler(0)"]
    assert res["residual"] <= 1e-8
    assert res["closure_error"] <= 1e-6
    lines = (tmp_path / "b0.csv").read_text().split("\n")
    assert lines[0] == "s,t,r,v,theta,w"
    assert "\r" not in lines[0]
    rows = [list(map(float, ln.split(","))) for ln in lines[1:] if ln]
    t = [r[1] for r in rows]
    assert t[0] == 0.0 and t[-1] > 0.0
    assert all(b >= a for a, b in zip(t, t[1:])), "physical time monotone"


def test_orbit_refuses_an_out_its_trajectory_csv_overwrites(
        tmp_path, monkeypatch, capsys):
    # the trajectory goes to the .csv beside --out, so an --out ending in
    # .csv would lose the report; refused before any search
    from schubart import orbits

    def refuse(*args, **kwargs):
        raise AssertionError("searched although --out is unusable")

    monkeypatch.setattr(orbits, "find_orbit", refuse)
    out = tmp_path / "b0.csv"
    code, text = run(["orbit", "--family", "B", "--k", "0",
                      "--param-lo", "0.4", "--param-hi", "0.7",
                      "--grid-points", "9", "--out", str(out)])
    assert code == 64
    assert text == "" and not out.exists()
    assert capsys.readouterr().err.startswith("error: --out")


def test_orbit_diagnostics_carry_the_root_evidence():
    # the root's bracket, noise floor and Brent shots sit next to
    # runtime_seconds, outside results, and reproduce like results do
    argv = ["orbit", "--family", "B", "--k", "0", "--param-lo", "0.4",
            "--param-hi", "0.7", "--grid-points", "9"]
    _, a = run(argv)
    _, b = run(argv)
    strip = lambda s: re.sub(r'"runtime_seconds": [^,]+,', "", s)
    assert strip(a) == strip(b)
    report = json.loads(a)
    assert list(report)[-3:] == ["runtime_seconds", "diagnostics", "results"]
    diag, res = report["diagnostics"], report["results"]
    assert set(diag) == {"bracket", "residual_floor", "root_shots"}
    lo, hi = diag["bracket"]
    assert 0.4 <= lo["param"] < hi["param"] <= 0.7
    assert lo["residual"] * hi["residual"] <= 0.0
    assert res["seed_parameter"] in (lo["param"], hi["param"])
    assert res["residual"] in (lo["residual"], hi["residual"])
    assert 0.0 < diag["residual_floor"] < 1e-8
    assert isinstance(diag["root_shots"], int) and diag["root_shots"] >= 1


def test_orbit_builds_only_the_output_it_writes(monkeypatch):
    argv = ["orbit", "--family", "B", "--k", "0", "--param-lo", "0.4",
            "--param-hi", "0.7", "--grid-points", "9"]

    def refuse(*args):
        raise AssertionError("built an output that is not written")

    with monkeypatch.context() as m:
        m.setattr(cli, "_trajectory_csv", refuse)
        code, out = run_json(argv)
    assert code == 0 and out["results"]["found"] is True
    monkeypatch.setattr(cli, "_json_text", refuse)
    code, text = run(argv + ["--format", "csv"])
    assert code == 0 and text.startswith("s,t,r,v,theta,w\n")


def test_orbit_accepts_and_ignores_workers(monkeypatch):
    # --workers stays an orbit flag for existing command lines; neither it
    # nor SCHUBART_WORKERS changes a byte of the report outside its runtime
    argv = ["orbit", "--family", "B", "--k", "0", "--param-lo", "0.4",
            "--param-hi", "0.7", "--grid-points", "9"]
    monkeypatch.setenv("SCHUBART_WORKERS", "two")
    code, a = run(argv)
    code2, b = run(argv + ["--workers", "2"])
    assert code == code2 == 0
    strip = lambda s: re.sub(r'"runtime_seconds": [^,]+,', "", s)
    assert strip(a) == strip(b)
    assert "workers" not in json.loads(b)["config"]


def test_orbit_runs_the_echoed_integration_settings():
    # --rtol, --atol and --max-s are echoed in config; each must also change
    # what the search computes
    base = ["orbit", "--family", "B", "--k", "0", "--param-lo", "0.4",
            "--param-hi", "0.7", "--grid-points", "9"]
    code, ref = run_json(base)
    assert code == 0
    for flag, value, key in (("--rtol", "1e-6", "rtol"),
                             ("--atol", "1e-8", "atol"),
                             ("--max-s", "2", "max_s")):
        code, out = run_json(base + [flag, value])
        assert out["config"][key] == float(value)
        assert code != 0 or out["results"] != ref["results"], flag
    # the quarter period is about 2.5: shots cut at s = 2 reach no terminal
    code, out = run_json(base + ["--max-s", "2"])
    assert code == 3
    assert {r["classification"] for r in out["results"]["scan"]} == {
        "no-terminal"}


def test_orbit_reports_an_ambiguous_bracket(monkeypatch):
    # a bracket whose root misses RESIDUAL_TOL gives no orbit, and the
    # report says so with its scan table.  At rtol 1e-6 the B(0) residual
    # carries about 3e-7 of integration noise, so whether a root shot lands
    # within the fixed 1e-8 depends on that noise; a tolerance no shot
    # reaches makes the exhausted bracket certain
    from schubart import orbits
    monkeypatch.setattr(orbits, "RESIDUAL_TOL", 1e-300)
    code, out = run_json(["orbit", "--family", "B", "--k", "0",
                          "--param-lo", "0.4", "--param-hi", "0.7",
                          "--grid-points", "9", "--rtol", "1e-6"])
    assert code == 3
    res = out["results"]
    assert res["found"] is False
    assert "exhausted" in res["error"]
    assert len(res["scan"]) == 9
    assert {r["classification"] for r in res["scan"]} == {"matched"}


def test_exit_64_on_bad_search_window(capsys):
    # an empty window, a window reaching r <= 0 on the S locus, and grids
    # too coarse to bracket a root
    for window in (["--param-lo", "0.7", "--param-hi", "0.4"],
                   ["--param-lo", "0"], ["--grid-points", "-3"],
                   ["--grid-points", "0"], ["--grid-points", "1"]):
        code, _ = run(["orbit", "--family", "B", "--k", "0"] + window)
        assert code == 64
        assert capsys.readouterr().err.startswith("error: search window")


def test_orbit_not_found_exits_3_with_scan():
    code, out = run_json(["orbit", "--problem", "planar", "--n", "10",
                          "--family", "Z1", "--k", "0",
                          "--grid-points", "25"])
    assert code == 3
    assert out["results"]["found"] is False
    assert len(out["results"]["scan"]) == 25
    assert "diagnostics" not in out


# -- tables -------------------------------------------------------------------


def test_table_sn_row():
    code, text = run(["table", "sn", "--n", "47", "--format", "csv"])
    assert code == 0
    header, row = text.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["rel_error"]) < 1e-6


def test_table_g3_matches_comparison_endpoints():
    code, out = run_json(["table", "g3"])
    assert code == 0
    vals = {r["n"]: r["g3_end"] for r in out["results"]["rows"]}
    assert set(vals) == set(range(2, 10))
    assert abs(vals[3] - -1.411246246990191) < 1e-6
    assert abs(vals[4] - -1.283404247501296) < 1e-6


def test_table_sweep_crosses_the_mass_threshold():
    code, text = run(["table", "landmarks-sweep", "--sweep", "mu",
                      "--lo", "2.0", "--hi", "3.0", "--steps", "3",
                      "--format", "csv"])
    assert code == 0
    rows = [ln.split(",") for ln in text.strip().split("\n")]
    v2 = rows[0].index("v2")
    assert float(rows[1][v2]) > 0.0  # mu = 2.0
    assert float(rows[3][v2]) < 0.0  # mu = 3.0


def test_table_sweep_rejects_mu_for_spatial():
    code, _ = run(["table", "landmarks-sweep", "--sweep", "mu",
                   "--problem", "spatial", "--n", "3"])
    assert code == 64


def test_table_sweep_rejects_fewer_than_one_step(capsys):
    # a negative count used to die in np.linspace, zero printed no rows
    for steps in ("-1", "0"):
        code, text = run(["table", "landmarks-sweep", "--sweep", "mu",
                          "--steps", steps])
        assert code == 64
        assert text == ""
        assert capsys.readouterr().err.startswith("error: --steps")


def test_table_n_sweep_rejects_an_empty_range(capsys):
    # lo > hi used to print a header-only table with exit 0
    code, text = run(["table", "landmarks-sweep", "--sweep", "n",
                      "--lo", "5", "--hi", "3"])
    assert code == 64
    assert text == ""
    assert capsys.readouterr().err.startswith("error: --lo")


@pytest.mark.parametrize("bounds,flag", [
    ([], "--lo"),
    (["--lo", "2"], "--hi"),
    (["--hi", "4"], "--lo"),
    (["--lo", "2.7", "--hi", "4"], "--lo"),
    (["--lo", "2", "--hi", "3.5"], "--hi"),
], ids=["no-bounds", "no-hi", "no-lo", "fractional-lo", "fractional-hi"])
def test_table_n_sweep_needs_whole_bounds(capsys, bounds, flag):
    # without bounds the n sweep used to read the mu defaults 0.5/3.5 and
    # fail on n = 0; a fractional bound was truncated without a word
    code, text = run(["table", "landmarks-sweep", "--sweep", "n"] + bounds)
    assert code == 64
    assert text == ""
    assert capsys.readouterr().err.startswith("error: " + flag)

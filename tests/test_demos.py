"""The demo scripts run end to end and print or write their results."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run_demo(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name] + [str(a) for a in args])
    runpy.run_path(str(DEMOS / name), run_name="__main__")


def _assert_csv(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) - 1 > 2


def test_branch_portrait_writes_each_branch(monkeypatch, tmp_path):
    prefix = tmp_path / "bp"
    _run_demo(monkeypatch, "branch_portrait.py", "--csv-prefix", prefix)
    for branch in ("gamma", "gammap", "stable_of_Lp_"):
        _assert_csv("%s_%s.csv" % (prefix, branch), ["s", "theta", "v", "w"])


def test_find_b_family_writes_b0(monkeypatch, tmp_path):
    out = tmp_path / "b0.csv"
    _run_demo(monkeypatch, "find_b_family.py", "--k-max", 0, "--csv", out)
    _assert_csv(out, ["theta", "r"])


def test_orbit_zoo_writes_its_members(monkeypatch, tmp_path):
    out = tmp_path / "zoo.csv"
    _run_demo(monkeypatch, "orbit_zoo.py", "--csv", out)
    _assert_csv(out, ["family", "s", "theta", "r"])


def _last_line(capsys):
    return capsys.readouterr().out.strip().split("\n")[-1]


def test_condition_scan_ends_with_the_planar_row(monkeypatch, capsys):
    _run_demo(monkeypatch, "condition_scan.py", "--n-max", 2)
    assert _last_line(capsys).split() == [
        "planar", "n=10", "-", "ok", "-", "-", "ok"]


def test_elliptic_and_certificate_certifies_v2(monkeypatch, capsys):
    _run_demo(monkeypatch, "elliptic_and_certificate.py")
    assert _last_line(capsys) == ("beta = -0.5858: integral 1.778944, "
                                  "lower bound +1.193158 -> v2 > 0 certified")


def test_mass_threshold_finds_the_sign_change(monkeypatch, capsys):
    _run_demo(monkeypatch, "mass_threshold.py", "--steps", 3)
    line = _last_line(capsys)
    assert line.startswith("v2 changes sign at mu = ")
    assert float(line.split("=")[1]) == pytest.approx(2.662, abs=1e-3)


def test_mass_threshold_rejects_fewer_than_two_steps(monkeypatch, capsys):
    # one step used to die dividing by steps - 1
    with pytest.raises(SystemExit) as exc:
        _run_demo(monkeypatch, "mass_threshold.py", "--steps", 1)
    assert exc.value.code == 2
    assert "--steps: must be at least 2" in capsys.readouterr().err

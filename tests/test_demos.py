"""The demo scripts run end to end and write their CSV exports."""

import csv
import runpy
import sys
from pathlib import Path

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

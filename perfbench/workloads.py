"""Task lists of the three workloads and the checks of their outputs.

A task is one `schubart` command line plus the check of what it printed.
The workload seed picks a shift of every orbit search window and a window
of the mass-ratio sweep, each from a pinned set whose outputs were checked
on the commit that added this benchmark (see pin.py); the seed changes no
root and no exit code.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFS_PATH = Path(__file__).with_name("references.json")

# Relative shifts of the orbit search windows: both ends are scaled by
# (1 + shift).  Non-positive, so the Z1(0) window stays inside the
# library's default Z-locus window for pyramidal n=2.  At each of these the
# orbit-refine field-call count lies within 2.6% of the others.
WINDOW_SHIFTS = (0.0, -0.002, -0.004, -0.006, -0.008, -0.012, -0.014)

# (lo, hi) of `table landmarks-sweep --sweep mu --steps 7`
SWEEP_WINDOWS = ((0.5, 3.5), (0.55, 3.55), (0.45, 3.45), (0.6, 3.3),
                 (0.5, 3.2), (0.4, 3.6))
SWEEP_STEPS = 7

# The library's default Z-locus window for pyramidal n=2:
# [theta_star - pi + 1e-3, -1e-3].
_Z_DEFAULT_PYR2 = (-2.7135140671973166, -1e-3)

# (problem, n, family, indices, window, grid points)
ORBIT_SCAN = [("pyramidal", 2, "B", (0,), (1e-3, 1e2), 400)]
ORBIT_REFINE = [
    ("pyramidal", 2, "B", (0,), (0.4, 0.7), 9),
    ("pyramidal", 2, "B", (1,), (0.9, 1.3), 9),
    ("pyramidal", 2, "Z1", (1,), (-2.66, -2.56), 9),
    ("pyramidal", 2, "Z5", (1, 1), (-2.66, -2.56), 9),
    ("spatial", 3, "B", (0,), (0.6, 1.0), 9),
    ("planar", 10, "B", (0,), (12.0, 19.0), 9),
    ("pyramidal", 2, "Z1", (0,), _Z_DEFAULT_PYR2, 40),
]
# searches that must end "not found" (exit 3): the pyramidal Z1(0) member
# does not exist (acceptance 11)
NOT_FOUND = ("pyramidal 2 Z1(0)",)
ATLAS_CONDITIONS = [("pyramidal", 2), ("pyramidal", 4), ("spatial", 3),
                    ("planar", 10)]
ATLAS_BRANCHES = [("spatial", 3), ("planar", 10)]

WORKLOADS = ("orbit-scan", "orbit-refine", "existence-atlas")


@dataclass
class Task:
    name: str
    argv: list
    check: object  # check(exit_code, stdout_text, refs) -> error text or None


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def choices(seed: int):
    """(window shift, sweep window) that the workload seed selects."""
    rng = random.Random(seed)
    return rng.choice(WINDOW_SHIFTS), rng.choice(SWEEP_WINDOWS)


def problem_key(kind: str, n: int) -> str:
    return "%s %d" % (kind, n)


def family_label(family: str, idx: tuple) -> str:
    return "%s(%s)" % (family, ",".join(str(i) for i in idx))


def orbit_argv(kind, n, family, idx, window, grid, shift):
    lo, hi = (x * (1.0 + shift) for x in window)
    argv = ["orbit", "--problem", kind, "--n", str(n), "--family", family]
    if len(idx) == 1:
        argv += ["--k", str(idx[0])]
    else:
        argv += ["--i", str(idx[0]), "--j", str(idx[1])]
    argv += ["--param-lo", repr(lo), "--param-hi", repr(hi),
             "--grid-points", str(grid), "--workers", "1"]
    return argv


def sweep_argv(window):
    lo, hi = window
    return ["table", "landmarks-sweep", "--sweep", "mu", "--lo", repr(lo),
            "--hi", repr(hi), "--steps", str(SWEEP_STEPS)]


def sweep_key(window) -> str:
    return "%r..%r" % window


# -- checks ----------------------------------------------------------------------


def _results(text):
    return json.loads(text)["results"]


def _close(got, want, tol):
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def _check_orbit(key):
    def check(code, text, refs):
        res = _results(text)
        if key in NOT_FOUND:
            if code != 3 or res["found"] is not False or not res["scan"]:
                return "want exit 3 with a scan table, got exit %d" % code
            return None
        if code != 0 or res["found"] is not True:
            return "want exit 0 and found, got exit %d" % code
        bounds = refs["orbit_bounds"]
        if not _close(res["seed_parameter"], refs["roots"][key],
                      bounds["seed_parameter"]):
            return "root %r, want %r" % (res["seed_parameter"],
                                         refs["roots"][key])
        for name in ("residual", "closure_error", "energy_drift"):
            if not abs(res[name]) <= bounds[name]:
                return "%s %r above %r" % (name, res[name], bounds[name])
        return None
    return check


def _check_conditions(key):
    def check(code, text, refs):
        want = refs["conditions"][key]
        if code != want["exit"]:
            return "exit %d, want %d" % (code, want["exit"])
        tol = refs["evidence_tol"]
        entries = _results(text)["conditions"]
        if [e["name"] for e in entries] != list(want["entries"]):
            return "conditions %s" % [e["name"] for e in entries]
        for entry in entries:
            ref = want["entries"][entry["name"]]
            if entry["status"] != ref["status"]:
                return "%s %s, want %s" % (entry["name"], entry["status"],
                                          ref["status"])
            got = {e["name"]: e["value"] for e in entry["evidence"]}
            if set(got) != set(ref["evidence"]):
                return "%s evidence names %s" % (entry["name"], sorted(got))
            for name, value in ref["evidence"].items():
                if not _close(got[name], value, tol * max(1.0, abs(value))):
                    return "%s %s = %r, want %r" % (entry["name"], name,
                                                   got[name], value)
        return None
    return check


def _check_branches(key):
    def check(code, text, refs):
        if code != 0:
            return "exit %d" % code
        res = _results(text)
        tol = refs["landmark_tol"]
        for name, value in refs["landmarks"][key].items():
            if not _close(res["landmarks"].get(name), value, tol):
                return "%s = %r, want %r" % (name, res["landmarks"].get(name),
                                             value)
        if res["separated"] is not True:
            return "v2 and v3 not separated"
        return None
    return check


def _check_sweep(window):
    def check(code, text, refs):
        if code != 0:
            return "exit %d" % code
        want = refs["sweeps"][sweep_key(window)]
        rows = _results(text)["rows"]
        if len(rows) != len(want):
            return "%d rows, want %d" % (len(rows), len(want))
        tol = refs["landmark_tol"]
        for row, ref in zip(rows, want):
            for col, value in ref.items():
                if isinstance(value, str):
                    ok = row.get(col) == value
                else:
                    ok = _close(row.get(col), value, tol)
                if not ok:
                    return "mu %r: %s = %r, want %r" % (
                        row.get("mu"), col, row.get(col), value)
        return None
    return check


def _check_g3(code, text, refs):
    if code != 0:
        return "exit %d" % code
    got = {str(r["n"]): r["g3_end"] for r in _results(text)["rows"]}
    if set(got) != set(refs["g3"]):
        return "g3 rows for n = %s" % sorted(got)
    for n, value in refs["g3"].items():
        if not _close(got[n], value, refs["g3_tol"]):
            return "g3(n=%s) = %r, want %r" % (n, got[n], value)
    return None


# -- task lists ------------------------------------------------------------------


def _orbit_tasks(specs, shift):
    out = []
    for kind, n, family, idx, window, grid in specs:
        key = "%s %s" % (problem_key(kind, n), family_label(family, idx))
        out.append(Task("orbit " + key,
                        orbit_argv(kind, n, family, idx, window, grid, shift),
                        _check_orbit(key)))
    return out


def tasks(workload: str, seed: int) -> list:
    """The ordered task list of one pass of the workload."""
    return build(workload, *choices(seed))


def build(workload: str, shift: float, window: tuple) -> list:
    """Task list for a given window shift and sweep window."""
    if workload == "orbit-scan":
        return _orbit_tasks(ORBIT_SCAN, shift)
    if workload == "orbit-refine":
        return _orbit_tasks(ORBIT_REFINE, shift)
    if workload != "existence-atlas":
        raise ValueError("unknown workload %r" % (workload,))
    out = []
    for kind, n in ATLAS_CONDITIONS:
        key = problem_key(kind, n)
        out.append(Task("conditions " + key,
                        ["conditions", "--problem", kind, "--n", str(n)],
                        _check_conditions(key)))
    for kind, n in ATLAS_BRANCHES:
        key = problem_key(kind, n)
        out.append(Task("branches " + key,
                        ["branches", "--problem", kind, "--n", str(n)],
                        _check_branches(key)))
    out.append(Task("sweep mu " + sweep_key(window), sweep_argv(window),
                    _check_sweep(window)))
    out.append(Task("table g3", ["table", "g3"], _check_g3))
    return out


def check_output(task: Task, code: int, text: str, refs: dict):
    """Error text when the output misses its reference, None when it holds."""
    try:
        return task.check(code, text, refs)
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable output (%s: %s)" % (type(exc).__name__, exc)


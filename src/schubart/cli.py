"""Command line front end.

Subcommands:
  conditions   run the applicable existence conditions, report pass/fail
  branches     trace the collision-manifold branches, list the landmarks
  orbit        search one periodic family, export report and trajectory
  table        reference tables: g3 endpoints, csc-sum asymptotics, sweeps

Reports are JSON and echo, as config, the settings that the run read; a
--config JSON file may set them too (flags win).  Trajectories and tables
can also be emitted as CSV (header row, LF endings).  Floats are written
with 17 significant digits so identical configs reproduce byte-identical
result sections; runtime_seconds is the one non-reproducible value.

Exit codes: 0 ok, 2 a condition failed, 3 orbit not found, 64 usage, 1 any
other library error.
"""

import argparse
import errno
import io
import json
import math
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import conditions as conditions_mod
from . import manifolds
from . import orbits
from . import problems
from .dynamics import H
from .errors import DomainError, OrbitNotFoundError, SchubartError
from .odeint import Controls

_SIG = ".17g"


def _settings(parser) -> dict:
    # a subcommand's options by dest, less help, --config and --workers
    return {a.dest: a for a in parser._actions if a.option_strings
            and a.dest not in ("help", "config", "workers")}


def _read_config(path, settings) -> dict:
    """The settings in a --config JSON file.  A value must fit its option's
    type (a float option also takes an int, an int option no bool), its
    choices, and null only where the default is None."""
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as err:
        raise DomainError("cannot read config %s: %s" % (path, err)) from None
    if not isinstance(values, dict):
        raise DomainError("config %s must hold a JSON object" % (path,))
    unknown = set(values) - set(settings)
    if unknown:
        raise DomainError("unknown config keys: %s" % sorted(unknown))
    for key, value in values.items():
        action = settings[key]
        want = action.type or str
        if value is None or isinstance(value, bool):
            ok = value is None and action.default is None
        else:
            ok = isinstance(value, (int, float) if want is float else want)
        if not ok:
            raise DomainError("config key %r must be of type %s, got %s"
                              % (key, want.__name__, json.dumps(value)))
        if action.choices is not None and value not in action.choices:
            raise DomainError("config key %r must be one of %s, got %s"
                              % (key, ", ".join(action.choices),
                                 json.dumps(value)))
    return values


def _parse(argv):
    """Parse a command line; a --config file's values become the chosen
    subcommand's defaults, so that its flags still beat the file."""
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        args.parser.set_defaults(
            **_read_config(args.config, _settings(args.parser)))
        args = parser.parse_args(argv)
    _check_out(args.out)
    return args


def _check_out(path) -> None:
    """Refuse an --out that cannot be written, before the run and without
    creating it: its directory must exist and be writable, and it must not
    be a directory.  _write still reports a failure that comes later."""
    if path is None:
        return
    out = Path(path)
    if out.is_dir():
        code = errno.EISDIR
    elif not out.parent.is_dir():
        code = errno.ENOENT
    elif not os.access(out.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise DomainError("cannot write %s: %s" % (path, os.strerror(code)))


def _problem(args):
    return problems.ProblemSpec(args.problem, args.n, args.mu)


# -- deterministic serialization ------------------------------------------------


def _json_text(obj, indent=0) -> str:
    """json.dumps with fixed 17-significant-digit float formatting."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = ",\n".join(
            "%s  %s: %s" % (pad, json.dumps(str(k)), _json_text(v, indent + 1))
            for k, v in obj.items())
        return "{\n%s\n%s}" % (rows, pad)
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        rows = ",\n".join("%s  %s" % (pad, _json_text(v, indent + 1))
                          for v in obj)
        return "[\n%s\n%s]" % (rows, pad)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), _SIG)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _csv_text(header, rows) -> str:
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        cells = [format(float(c), _SIG)
                 if isinstance(c, (float, np.floating)) else str(c)
                 for c in row]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def _envelope(command: str, args, results, t0: float,
              diagnostics=None) -> dict:
    """The report: results, preceded by how the run went (its runtime and
    any diagnostics), which results leave out so that they reproduce."""
    out = {
        "tool": "schubart",
        "version": __version__,
        "command": command,
        # the subcommand's settings, less any that the run dropped unread
        "config": {k: vars(args)[k] for k in _settings(args.parser)
                   if k in vars(args)},
        "runtime_seconds": time.perf_counter() - t0,
    }
    if diagnostics is not None:
        out["diagnostics"] = diagnostics
    out["results"] = results
    return out


def _write(text: str, path) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise DomainError("cannot write %s: %s"
                          % (path, err.strerror)) from None


# -- subcommands -----------------------------------------------------------------


def cmd_conditions(args) -> int:
    t0 = time.perf_counter()
    problem = _problem(args)
    report = conditions_mod.condition_report(problem, beta=args.beta)
    entries = []
    for name in conditions_mod.CONDITION_NAMES:
        entry = report.entries[name]
        entries.append({
            "name": name,
            "status": entry["status"],
            "method": entry["method"],
            "evidence": [{"name": k, "value": v}
                         for k, v in entry["evidence"]],
        })
    ok = all(e["status"] in ("pass", "not-applicable") for e in entries)
    results = {"problem": str(problem), "conditions": entries,
               "all_pass_or_na": ok}
    _write(_json_text(_envelope("conditions", args, results, t0)), args.out)
    return 0 if ok else 2


def cmd_branches(args) -> int:
    t0 = time.perf_counter()
    problem = _problem(args)
    marks = manifolds.landmark_values(problem)
    n4 = manifolds.check_N4(problem)
    keys = sorted(marks)
    if args.format == "csv":
        text = _csv_text(keys + ["separation_v2_v3"],
                         [[marks[k] for k in keys] + [n4["separation"]]])
        _write(text, args.out)
        return 0
    results = {
        "problem": str(problem),
        "landmarks": {k: marks[k] for k in keys},
        "signs": {k: ("+" if marks[k] > 0 else "-") for k in keys},
        "separation_v2_v3": n4["separation"],
        "separated": n4["pass"],
    }
    _write(_json_text(_envelope("branches", args, results, t0)), args.out)
    return 0


def _family_spec(args) -> orbits.FamilySpec:
    # a flag and a --config file can each set one of --k and --i
    if args.k is not None and args.i is not None:
        raise DomainError("--i is not allowed with --k")
    if args.family is None:
        raise DomainError("orbit needs a --family")
    return orbits.FamilySpec(args.family,
                             args.k if args.i is None else args.i, args.j)


def _trajectory_csv(orbit) -> str:
    s = orbit.reconstructed.s
    r, v, theta, w = orbit.reconstructed.y
    # physical time from the rescaling dt/ds = r^(3/2) cos^2(theta)
    dt_ds = r ** 1.5 * np.cos(theta) ** 2
    t = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dt_ds[1:] + dt_ds[:-1]) * np.diff(s))])
    return _csv_text(["s", "t", "r", "v", "theta", "w"],
                     zip(s, t, r, v, theta, w))


def cmd_orbit(args) -> int:
    t0 = time.perf_counter()
    if args.format == "json" and args.out is not None:
        # the trajectory CSV is written beside the report
        if Path(args.out).suffix == ".csv":
            raise DomainError("--out %s: the report would be overwritten by"
                              " the trajectory CSV written beside it"
                              % (args.out,))
        _check_out(Path(args.out).with_suffix(".csv"))
    spec = _family_spec(args)
    problem = _problem(args)
    controls = Controls(rtol=args.rtol, atol=args.atol, max_s=args.max_s)
    overrides = {k: getattr(args, k)
                 for k in ("grid_points", "param_lo", "param_hi")
                 if getattr(args, k) is not None}
    try:
        orbit = orbits.find_orbit(problem, spec, overrides,
                                  controls=controls)
    except OrbitNotFoundError as err:
        results = {
            "family": str(spec),
            "found": False,
            "error": str(err),
            "scan": [{"param": p, "classification": c,
                      "lines": list(lines), "residual": f}
                     for p, c, lines, f in err.scan],
        }
        _write(_json_text(_envelope("orbit", args, results, t0)), args.out)
        return 3
    checks = orbits.verify_periodicity(orbit)
    seed = orbit.seed
    results = {
        "family": str(spec),
        "found": True,
        "seed_parameter": orbit.seed_parameter,
        "segment": orbit.quarter_or_half,
        "signature": list(orbits.prescribed_signature(spec)),
        "residual": orbit.residual,
        "full_period_s": orbit.full_period_s,
        "closure_error": checks["closure_error"],
        "energy_drift": checks["energy_drift"],
        "seed": {"chart": "newcoords", "r": seed.r, "v": seed.v,
                 "theta": seed.angle, "w": seed.w, "h": H},
        "notes": dict(orbit.notes),
    }
    if args.format == "csv":
        _write(_trajectory_csv(orbit), args.out)
        return 0
    # the root's evidence of convergence
    diagnostics = {
        "bracket": [{"param": p, "residual": f} for p, f in orbit.bracket],
        "residual_floor": orbit.residual_floor,
        "root_shots": orbit.root_shots,
    }
    _write(_json_text(_envelope("orbit", args, results, t0, diagnostics)),
           args.out)
    if args.out is not None:
        _write(_trajectory_csv(orbit), Path(args.out).with_suffix(".csv"))
    return 0


def _table_g3(args):
    rows = []
    for n in range(2, 10):
        res = conditions_mod.integrate_g(problems.spatial(n), "g3")
        rows.append({"n": n, "g3_end": res.endpoint_g})
    return rows, ["n", "g3_end"]


def _table_sn(args):
    s_n = problems.csc_sum(args.n)
    approx = problems.csc_sum_asymptotic(args.n)
    row = {"n": args.n, "S_n": s_n, "S_n_over_4": s_n / 4.0,
           "asymptotic": approx,
           "rel_error": abs(approx - s_n / 4.0) / (s_n / 4.0)}
    return [row], ["n", "S_n", "S_n_over_4", "asymptotic", "rel_error"]


def _table_sweep(args):
    # a setting that this sweep does not read must not be given or echoed
    for name in ("mu",) if args.sweep == "mu" else ("n", "steps"):
        if vars(args).pop(name) is not None:
            raise DomainError("--%s is not read on the %s sweep"
                              % (name, args.sweep))
    if args.sweep == "mu":
        if args.problem != "pyramidal":
            raise DomainError("only the pyramidal family has a mass ratio")
        steps = 7 if args.steps is None else args.steps
        if steps < 1:
            raise DomainError("--steps must be at least 1, got %d" % (steps,))
        lo = 0.5 if args.lo is None else args.lo
        hi = 3.5 if args.hi is None else args.hi
        for flag, bound in (("--lo", lo), ("--hi", hi)):
            if not math.isfinite(bound):
                raise DomainError("%s must be finite on the mu sweep, got %r"
                                  % (flag, bound))
        values = np.linspace(lo, hi, steps)
        n = 2 if args.n is None else args.n
        mk = lambda v: problems.pyramidal(n, float(v))
        key = "mu"
    else:
        for flag, bound in (("--lo", args.lo), ("--hi", args.hi)):
            if bound is None:
                raise DomainError("%s is required on the n sweep" % (flag,))
            if not bound.is_integer():
                raise DomainError("%s must be a whole number on the n sweep,"
                                  " got %r" % (flag, bound))
        lo, hi = int(args.lo), int(args.hi)
        if lo > hi:
            raise DomainError("--lo must not exceed --hi on the n sweep, got "
                              "%d > %d" % (lo, hi))
        values = range(lo, hi + 1)
        mu = 1.0 if args.mu is None else args.mu
        mk = lambda v: problems.ProblemSpec(args.problem, int(v), mu)
        key = "n"
    cols = [key] + ["v%d" % k for k in range(6)]
    rows = []
    for v in values:
        marks = manifolds.landmark_values(mk(v))
        row = {key: float(v) if key == "mu" else int(v)}
        row.update({c: marks.get(c, "") for c in cols[1:]})
        rows.append(row)
    return rows, cols


def cmd_table(table, args) -> int:
    t0 = time.perf_counter()
    rows, cols = table(args)
    if args.format == "csv":
        _write(_csv_text(cols, [[r[c] for c in cols] for r in rows]), args.out)
        return 0
    results = {"which": args.which, "rows": rows}
    _write(_json_text(_envelope("table", args, results, t0)), args.out)
    return 0


# -- argument plumbing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the exit-code contract reserves 2 for
    # condition failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(64)


def _subcommand(subs, name, func, help, csv=True):
    p = subs.add_parser(name, help=help)
    p.add_argument("--config", help="JSON file of these settings, keyed by"
                   " long flag name with - as _; flags beat it")
    p.add_argument("--out")
    if csv:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=func, parser=p)
    return p


def _add_problem(p, n=2, mu=1.0):
    p.add_argument("--problem", choices=("pyramidal", "spatial", "planar"),
                   default="pyramidal")
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--mu", type=float, default=mu)


def make_parser() -> _Parser:
    parser = _Parser(prog="schubart", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(subs, "conditions", cmd_conditions,
                    "evaluate N1..N4 for a problem", csv=False)
    _add_problem(p)
    p.add_argument("--beta", type=float,
                   help="comparison level for N3' (default %g)"
                   % conditions_mod.DEFAULT_BETA)

    p = _subcommand(subs, "branches", cmd_branches,
                    "landmark table from branch traces")
    _add_problem(p)

    p = _subcommand(subs, "orbit", cmd_orbit, "search one periodic family")
    _add_problem(p)
    p.add_argument("--family", choices=orbits.FAMILY_NAMES, help="required")
    p.add_argument("--k", type=int, help="index for B/Z1")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--rtol", type=float, default=Controls.rtol)
    p.add_argument("--atol", type=float, default=Controls.atol)
    p.add_argument("--max-s", type=float, default=orbits.SHOT_MAX_S)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--param-lo", type=float)
    p.add_argument("--param-hi", type=float)
    p.add_argument("--workers", type=int, help="accepted and ignored")

    tables = subs.add_parser("table", help="reference tables")
    tables = tables.add_subparsers(dest="which", required=True)
    p = _subcommand(tables, "g3", partial(cmd_table, _table_g3),
                    "g3 endpoints of the spatial problem, n = 2..9")
    p = _subcommand(tables, "sn", partial(cmd_table, _table_sn),
                    "the csc sum S_n and its asymptotic")
    p.add_argument("--n", type=int, default=2)
    p = _subcommand(tables, "landmarks-sweep",
                    partial(cmd_table, _table_sweep),
                    "landmarks along a mu or an n sweep")
    _add_problem(p, n=None, mu=None)
    p.add_argument("--sweep", choices=["mu", "n"], default="mu",
                   help="mu: at --n (default 2); n: at --mu (default 1)")
    p.add_argument("--lo", type=float,
                   help="first mu (default 0.5), or first whole n (required)")
    p.add_argument("--hi", type=float,
                   help="last mu (default 3.5), or last whole n (required)")
    p.add_argument("--steps", type=int,
                   help="number of mu values (mu sweep only, default 7)")
    return parser


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.func(args)
    except DomainError as err:
        sys.stderr.write("error: %s\n" % err)
        return 64
    except SchubartError as err:
        sys.stderr.write("error: %s\n" % err)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

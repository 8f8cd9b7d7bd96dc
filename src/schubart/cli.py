"""Command line front end.

Subcommands:
  conditions   run the applicable existence conditions, report pass/fail
  branches     trace the collision-manifold branches, list the landmarks
  orbit        search one periodic family, export report and trajectory
  table        reference tables: g3 endpoints, csc-sum asymptotics, sweeps

Reports are JSON; trajectories and tables can also be emitted as CSV
(header row, LF endings).  Floats are written with 17 significant digits
so identical configs reproduce byte-identical result sections; the
runtime_seconds field is the one intentionally non-reproducible value.

Exit codes: 0 ok, 2 a condition failed, 3 orbit not found, 64 usage.
"""

import argparse
import dataclasses
import io
import json
import sys
import time
from dataclasses import dataclass
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

# the values of the flags that take a fixed set, for argparse and config files
_CHOICES = {"problem": ("pyramidal", "spatial", "planar"),
            "format": ("json", "csv")}


@dataclass
class RunConfig:
    """Effective settings for one command; unset fields take these defaults."""

    problem: str = "pyramidal"
    n: int = 2
    mu: float = 1.0
    # integrator overrides (orbit)
    rtol: float = Controls.rtol
    atol: float = Controls.atol
    max_s: float = orbits.SHOT_MAX_S
    # search overrides (None -> per-family defaults)
    grid_points: int = None
    param_lo: float = None
    param_hi: float = None
    # condition comparison level (None -> module default)
    beta: float = None
    out: str = None
    format: str = "json"


def build_config(args) -> RunConfig:
    """Layer defaults, then an optional --config JSON file, then CLI flags.

    A file value must fit its field: an int field takes an int (not a
    bool), a float field an int or a float, a str field a str, and null
    is allowed only where the default is None; a field whose flag has
    fixed choices takes only those."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    layers = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                layers = json.load(fh)
        except (OSError, ValueError) as err:
            raise DomainError("cannot read config %s: %s"
                              % (path, err)) from None
        if not isinstance(layers, dict):
            raise DomainError("config %s must hold a JSON object" % (path,))
        unknown = set(layers) - set(fields)
        if unknown:
            raise DomainError("unknown config keys: %s" % sorted(unknown))
        for key, value in layers.items():
            want = fields[key].type
            if value is None or isinstance(value, bool):
                ok = value is None and fields[key].default is None
            else:
                ok = isinstance(value, (int, float) if want is float else want)
            if not ok:
                raise DomainError("config key %r must be of type %s, got %s"
                                  % (key, want.__name__, json.dumps(value)))
            if key in _CHOICES and value not in _CHOICES[key]:
                raise DomainError("config key %r must be one of %s, got %s"
                                  % (key, ", ".join(_CHOICES[key]),
                                     json.dumps(value)))
    for name in fields:
        v = getattr(args, name, None)
        if v is not None:
            layers[name] = v
    return RunConfig(**layers)


def _problem(cfg: RunConfig):
    return problems.ProblemSpec(cfg.problem, cfg.n, cfg.mu)


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


def _envelope(command: str, cfg: RunConfig, results, t0: float,
              diagnostics=None) -> dict:
    """The report: results, preceded by how the run went (its runtime and
    any diagnostics), which results leave out so that they reproduce."""
    out = {
        "tool": "schubart",
        "version": __version__,
        "command": command,
        "config": dataclasses.asdict(cfg),
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
    else:
        Path(path).write_text(text)


# -- subcommands -----------------------------------------------------------------


def cmd_conditions(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    if cfg.format != "json":
        raise DomainError("condition reports are nested; only json output")
    problem = _problem(cfg)
    report = conditions_mod.condition_report(problem, beta=cfg.beta)
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
    _write(_json_text(_envelope("conditions", cfg, results, t0)), cfg.out)
    return 0 if ok else 2


def cmd_branches(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    problem = _problem(cfg)
    marks = manifolds.landmark_values(problem)
    n4 = manifolds.check_N4(problem)
    keys = sorted(marks)
    if cfg.format == "csv":
        text = _csv_text(keys + ["separation_v2_v3"],
                         [[marks[k] for k in keys] + [n4["separation"]]])
        _write(text, cfg.out)
        return 0
    results = {
        "problem": str(problem),
        "landmarks": {k: marks[k] for k in keys},
        "signs": {k: ("+" if marks[k] > 0 else "-") for k in keys},
        "separation_v2_v3": n4["separation"],
        "separated": n4["pass"],
    }
    _write(_json_text(_envelope("branches", cfg, results, t0)), cfg.out)
    return 0


def _family_spec(args) -> orbits.FamilySpec:
    i = args.i if args.i is not None else args.k
    return orbits.FamilySpec(args.family, i, args.j)


def _search_overrides(cfg: RunConfig) -> dict:
    out = {}
    for key in ("grid_points", "param_lo", "param_hi"):
        v = getattr(cfg, key)
        if v is not None:
            out[key] = v
    return out


def _trajectory_csv(orbit) -> str:
    s = orbit.reconstructed.s
    r, v, theta, w = orbit.reconstructed.y
    # physical time from the rescaling dt/ds = r^(3/2) cos^2(theta)
    dt_ds = r ** 1.5 * np.cos(theta) ** 2
    t = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dt_ds[1:] + dt_ds[:-1]) * np.diff(s))])
    return _csv_text(["s", "t", "r", "v", "theta", "w"],
                     zip(s, t, r, v, theta, w))


def cmd_orbit(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    if cfg.out is not None and Path(cfg.out).suffix == ".csv":
        raise DomainError("--out %s: the report would be overwritten by the"
                          " trajectory CSV written beside it" % (cfg.out,))
    spec = _family_spec(args)
    problem = _problem(cfg)
    controls = Controls(rtol=cfg.rtol, atol=cfg.atol, max_s=cfg.max_s)
    try:
        orbit = orbits.find_orbit(problem, spec, _search_overrides(cfg),
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
        _write(_json_text(_envelope("orbit", cfg, results, t0)), cfg.out)
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
        "seed": {"chart": seed.chart, "r": seed.r, "v": seed.v,
                 "theta": seed.angle, "w": seed.w, "h": H},
        "notes": dict(orbit.notes),
    }
    if cfg.out is None and cfg.format == "csv":
        _write(_trajectory_csv(orbit), None)
        return 0
    # the root's evidence of convergence
    diagnostics = {
        "bracket": [{"param": p, "residual": f} for p, f in orbit.bracket],
        "residual_floor": orbit.residual_floor,
        "root_shots": orbit.root_shots,
    }
    _write(_json_text(_envelope("orbit", cfg, results, t0, diagnostics)),
           cfg.out)
    if cfg.out is not None:
        _write(_trajectory_csv(orbit), Path(cfg.out).with_suffix(".csv"))
    return 0


def _table_g3(cfg):
    rows = []
    for n in range(2, 10):
        res = conditions_mod.integrate_g(problems.spatial(n), "g3")
        rows.append({"n": n, "g3_end": res.endpoint_g})
    return rows, ["n", "g3_end"]


def _table_sn(cfg):
    s_n = problems.csc_sum(cfg.n)
    approx = problems.csc_sum_asymptotic(cfg.n)
    row = {"n": cfg.n, "S_n": s_n, "S_n_over_4": s_n / 4.0,
           "asymptotic": approx,
           "rel_error": abs(approx - s_n / 4.0) / (s_n / 4.0)}
    return [row], ["n", "S_n", "S_n_over_4", "asymptotic", "rel_error"]


def _table_sweep(cfg, args):
    if args.sweep == "mu":
        if cfg.problem != "pyramidal":
            raise DomainError("only the pyramidal family has a mass ratio")
        if args.steps < 1:
            raise DomainError("--steps must be at least 1, got %d"
                              % (args.steps,))
        lo = 0.5 if args.lo is None else args.lo
        hi = 3.5 if args.hi is None else args.hi
        values = np.linspace(lo, hi, args.steps)
        mk = lambda v: problems.pyramidal(cfg.n, float(v))
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
        mk = lambda v: _problem(dataclasses.replace(cfg, n=int(v)))
        key = "n"
    cols = [key] + ["v%d" % k for k in range(6)]
    rows = []
    for v in values:
        marks = manifolds.landmark_values(mk(v))
        row = {key: float(v) if key == "mu" else int(v)}
        row.update({c: marks.get(c, "") for c in cols[1:]})
        rows.append(row)
    return rows, cols


def cmd_table(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    if args.which == "g3":
        rows, cols = _table_g3(cfg)
    elif args.which == "sn":
        rows, cols = _table_sn(cfg)
    else:
        rows, cols = _table_sweep(cfg, args)
    if cfg.format == "csv":
        _write(_csv_text(cols, [[r[c] for c in cols] for r in rows]), cfg.out)
        return 0
    results = {"which": args.which, "rows": rows}
    _write(_json_text(_envelope("table", cfg, results, t0)), cfg.out)
    return 0


# -- argument plumbing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the exit-code contract reserves 2 for
    # condition failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(64)


def _add_common(sub):
    sub.add_argument("--config", help="JSON file with RunConfig fields")
    sub.add_argument("--problem", choices=_CHOICES["problem"])
    sub.add_argument("--n", type=int)
    sub.add_argument("--mu", type=float)
    sub.add_argument("--out")
    sub.add_argument("--format", choices=_CHOICES["format"])


def make_parser() -> _Parser:
    parser = _Parser(prog="schubart", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("conditions", help="evaluate N1..N4 for a problem")
    _add_common(p)
    p.add_argument("--beta", type=float,
                   help="comparison level for N3' (default %g)"
                   % conditions_mod.DEFAULT_BETA)
    p.set_defaults(func=cmd_conditions)

    p = subs.add_parser("branches", help="landmark table from branch traces")
    _add_common(p)
    p.set_defaults(func=cmd_branches)

    p = subs.add_parser("orbit", help="search one periodic family")
    _add_common(p)
    p.add_argument("--family", required=True, choices=orbits.FAMILY_NAMES)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--max-s", dest="max_s", type=float)
    index = p.add_mutually_exclusive_group()
    index.add_argument("--k", type=int, help="index for B/Z1")
    index.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--param-lo", dest="param_lo", type=float)
    p.add_argument("--param-hi", dest="param_hi", type=float)
    p.add_argument("--workers", type=int,
                   help="accepted and ignored; the scan runs as one "
                   "lockstep block")
    p.set_defaults(func=cmd_orbit)

    p = subs.add_parser("table", help="reference tables")
    _add_common(p)
    p.add_argument("which", choices=["g3", "sn", "landmarks-sweep"])
    p.add_argument("--sweep", choices=["mu", "n"], default="mu")
    p.add_argument("--lo", type=float,
                   help="first mu (default 0.5), or first whole n (required)")
    p.add_argument("--hi", type=float,
                   help="last mu (default 3.5), or last whole n (required)")
    p.add_argument("--steps", type=int, default=7,
                   help="number of mu values (mu sweep only)")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return args.func(cfg, args)
    except DomainError as err:
        sys.stderr.write("error: %s\n" % err)
        return 64
    except SchubartError as err:
        sys.stderr.write("error: %s\n" % err)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

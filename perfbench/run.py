"""Benchmark of the schubart toolkit through its command line front end.

    python3 perfbench/run.py --workload orbit-scan --seed 1 --seconds 30 --trace 0

Runs the task list of one workload (see workloads.py) in-process through
`schubart.cli.main`, one task after another (one client, closed loop),
checks every output against references.json, and prints one line per
metric followed by a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 repeats whole passes of the task list until --seconds is used up
and reports the end-to-end metrics, with the times of each pass given at
the speed of a reference host (hostspeed.py).  --trace 1 runs one untraced
pass and two traced passes (a fixed amount of work; --seconds is not used)
and reports the per-layer metrics.  See NOTES.md for the metric
definitions.  Results and spans are written under perfbench/out/.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# setup_s is taken against fresh interpreters that import only the
# third-party modules schubart.cli imported when this benchmark was written,
# timed alternately with the real ones: the bulk of the set-up, with no
# program code.  On the reference host the import time drifted by 30% over
# half an hour, and the host-speed loop did not follow it; the reference
# import does the same work.  setup_s is the ratio of the two medians times
# SETUP_REF_S, the reference import's time on the reference host.
SETUP_REFERENCE = "import numpy, scipy.integrate, scipy.optimize"
SETUP_REF_S = 0.8

END_TO_END = (("wall_s", "s"), ("task_p50_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER_UNITS = {
    "dynamics.field_calls": "count", "dynamics.field_us": "us",
    "dynamics.field_us.pyramidal": "us", "dynamics.field_us.spatial": "us",
    "dynamics.field_us.planar": "us",
    "dynamics.energy_residual_calls": "count",
    "odeint.integrate_calls": "count", "odeint.self_s": "s",
    "odeint.overhead_us_per_fev": "us", "odeint.samples": "count",
    "orbits.scan_shots": "count", "orbits.scan_s": "s",
    "orbits.root_shots": "count", "orbits.root_s": "s",
    "orbits.reconstruct_s": "s", "orbits.verify_s": "s",
    "orbits.shot_ms": "ms", "orbits.nfev_per_shot": "count",
    "orbits.pool2_scan_s": "s",
    "manifolds.trace_calls": "count", "manifolds.trace_ms": "ms",
    "manifolds.forward_s": "s", "manifolds.backward_s": "s",
    "manifolds.equilibria_s": "s", "manifolds.nfev_per_trace": "count",
    "conditions.check_s.N1": "s", "conditions.check_s.N2": "s",
    "conditions.check_s.N3": "s", "conditions.check_s.N3prime": "s",
    "conditions.check_s.N4": "s",
    "conditions.integrate_g_calls": "count", "conditions.integrate_g_s": "s",
    "problems.critical_points_calls": "count",
    "problems.critical_points_s": "s",
    "cli.self_s": "s", "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


# -- run metadata ------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_meta(argv, load_at_start) -> dict:
    import numpy
    import scipy
    return {
        "command": [os.path.basename(sys.executable), "perfbench/run.py"] + argv,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "loadavg_at_start": list(load_at_start),
        "platform": platform.platform(),
    }


# -- measurement -------------------------------------------------------------------


def import_seconds(statement) -> float:
    """Seconds from starting a fresh interpreter until `statement` returns
    (read on the monotonic clock, which the child shares)."""
    code = statement + "; import time; print(time.perf_counter())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           cwd=str(ROOT), check=True, timeout=SETUP_TIMEOUT_S,
                           capture_output=True, text=True)
    return float(child.stdout) - t0


def measure_setup() -> dict:
    """Import times of schubart.cli and of the reference, alternately."""
    times, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference.append(import_seconds(SETUP_REFERENCE))
        times.append(import_seconds("import schubart.cli"))
    return {"raw_s": times, "reference_s": reference}


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_task(cli, argv):
    """(exit code, stdout text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def run_pass(cli, tasks, refs, label, sampler, tracer=None) -> dict:
    """One pass over the task list; task time covers only the CLI call.
    A hostspeed.Sampler samples the host's speed while each task runs;
    with None the times are only measured."""
    times, cpu, scales, failures = [], [], [], []
    scaled = sampler is not None
    if not scaled:
        sampler = hostspeed.Sampler()  # never entered: takes no time out
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.begin_task("%s.t%d" % (label, i))
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with sampler if scaled else contextlib.nullcontext():
            try:
                code, text = run_task(cli, task.argv)
                error = None
            except Exception:  # a crash counts as a failed task
                error = traceback.format_exc()
        times.append(time.perf_counter() - t0 - sampler.wall)
        cpu.append(cpu_seconds() - cpu0 - sampler.cpu)
        if scaled:
            scales.append(hostspeed.scale(sampler.chunks))
        if error is None:
            error = workloads.check_output(task, code, text, refs)
        if error is not None:
            failures.append({"task": task.name, "error": error})
    out = {"label": label, "task_s": times, "task_cpu_s": cpu,
           "failures": failures}
    if scaled:
        out["task_scale"] = scales
    return out


def pass_seconds(p, key="task_s", scaled=True) -> list:
    """Per-task times of a pass, at the reference speed or as measured."""
    if not scaled:
        return list(p[key])
    return [t * k for t, k in zip(p[key], p["task_scale"])]


def timed_run(cli, tasks, refs, seconds) -> list:
    """Whole passes until the next one would end well past the budget."""
    passes = []
    start = last = time.perf_counter()
    while True:
        passes.append(run_pass(cli, tasks, refs, "p%d" % len(passes),
                               hostspeed.Sampler()))
        now = time.perf_counter()
        if now - start + 0.5 * (now - last) >= seconds:
            return passes
        last = now


def end_to_end(passes, setup, scaled=True) -> dict:
    """The end-to-end metrics; scaled=False gives the measured times."""
    return {
        "wall_s": statistics.median(sum(pass_seconds(p, scaled=scaled))
                                    for p in passes),
        "task_p50_s": statistics.median(t for p in passes
                                        for t in pass_seconds(p, scaled=scaled)),
        "cpu_s": statistics.median(sum(pass_seconds(p, "task_cpu_s", scaled))
                                   for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": (statistics.median(setup["raw_s"])
                    * (SETUP_REF_S / statistics.median(setup["reference_s"])
                       if scaled else 1.0)),
    }


def traced_run(cli, tasks, refs, workload) -> dict:
    """One untraced pass, then two traced passes whose counts must agree.
    Span times leave out the host sampler's time but are not scaled."""
    passes = [run_pass(cli, tasks, refs, "untraced", hostspeed.Sampler())]
    per_pass, spans = [], []
    for k in range(2):
        sampler = hostspeed.Sampler()
        tr = tracing.Tracer(lambda: time.perf_counter() - sampler.wall)
        tr.install()
        try:
            passes.append(run_pass(cli, tasks, refs, "traced%d" % k,
                                   sampler, tr))
        finally:
            tr.uninstall()
        per_pass.append(tracing.layer_metrics(tr.spans))
        spans.extend(tr.spans)

    problems = []
    for name in tracing.COUNTS:
        a, b = per_pass[0][name], per_pass[1][name]
        if a != b:
            problems.append("count %s differs between traced passes: %r vs %r"
                            % (name, a, b))
    metrics = {name: (per_pass[0][name] if name in tracing.COUNTS
                      else statistics.median(m[name] for m in per_pass))
               for name in per_pass[0]}
    wall = [sum(pass_seconds(p)) for p in passes]
    traced = statistics.median(wall[1:])
    metrics["trace.overhead_frac"] = traced / wall[0] - 1.0

    metrics["orbits.pool2_scan_s"] = 0.0
    if workload == "orbit-scan":
        if nproc() < 2:
            print("note: orbits.pool2_scan_s skipped (nproc = %d < 2); "
                  "reported as 0" % nproc())
        else:
            pool_tasks = [workloads.Task(t.name + " --workers 2",
                                         _with_workers(t.argv, 2), t.check)
                          for t in tasks]
            pool = run_pass(cli, pool_tasks, refs, "pool2", None)
            passes.append(pool)
            metrics["orbits.pool2_scan_s"] = sum(pool["task_s"])
    return {"passes": passes, "problems": problems, "spans": spans,
            "metrics": {name: metrics[name] for name in PER_LAYER_UNITS}}


def _with_workers(argv, n):
    out = list(argv)
    out[out.index("--workers") + 1] = str(n)
    return out


# -- output ------------------------------------------------------------------------


def write_outputs(args, meta, run, metrics, unscaled, setup):
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {"meta": meta, "metrics": metrics, "unscaled": unscaled,
              "setup_s": setup, "problems": run["problems"],
              "passes": run["passes"]}
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if run.get("spans"):
        with open(OUT / (stem + "-spans.jsonl"), "w") as fh:
            for span in run["spans"]:
                fh.write(json.dumps(span.as_dict()) + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not (SRC / "schubart" / "cli.py").is_file():
        sys.stderr.write("perfbench: no schubart sources under %s\n" % SRC)
        return 2
    refs = workloads.load_refs()
    tasks = workloads.tasks(args.workload, args.seed)

    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    from schubart import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write("perfbench: schubart imported from %s, not %s\n"
                         % (cli.__file__, SRC))
        return 2
    meta = run_meta(argv, load_at_start)
    shift, window = workloads.choices(args.seed)
    meta["inputs"] = {"window_shift": shift, "sweep_window": list(window),
                      "tasks": [t.argv for t in tasks]}
    print(json.dumps({"meta": meta}))

    units = dict(END_TO_END, **PER_LAYER_UNITS)
    if args.trace:
        run = traced_run(cli, tasks, refs, args.workload)
        e2e_passes = run["passes"][:1]
    else:
        run = {"passes": timed_run(cli, tasks, refs, args.seconds),
               "problems": []}
        e2e_passes = run["passes"]
    e2e = end_to_end(e2e_passes, setup)
    unscaled = end_to_end(e2e_passes, setup, scaled=False)
    reported = run["metrics"] if args.trace else e2e
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in reported.items()}
    write_outputs(args, meta, run, dict(e2e, **reported), unscaled, setup)

    attempted = sum(len(p["task_s"]) for p in run["passes"])
    failed = sum(len(p["failures"]) for p in run["passes"])
    for p in run["passes"]:
        for f in p["failures"]:
            print("FAIL %s %s: %s" % (p["label"], f["task"], f["error"]))
    for problem in run["problems"]:
        print("FAIL %s" % problem)
    print("passes %d, tasks attempted %d, failed %d, fail_frac %.4g"
          % (len(run["passes"]), attempted, failed, failed / attempted))
    if args.trace:
        print("end to end from the untraced pass (peak_rss_mb: whole run):")
    for name, value in list(e2e.items()) + (list(reported.items())
                                            if args.trace else []):
        print("%-34s %.6g %s" % (name, value, units[name]))
    print("as measured, before host-speed scaling: %s" % ", ".join(
        "%s %.4g" % (name, value) for name, value in unscaled.items()
        if name != "peak_rss_mb"))
    print(json.dumps({"correct": failed == 0 and not run["problems"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

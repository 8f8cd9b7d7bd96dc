"""Pin the references that no test table holds, then check every input.

    python3 perfbench/pin.py          # pin from this checkout, then check
    python3 perfbench/pin.py --check  # check only

Pinning runs the existence-atlas tasks on this checkout and stores in
references.json the exit code, statuses and evidence of each `conditions`
task, the rows of the mu sweep for every window in SWEEP_WINDOWS, and the
`table g3` rows.  The check runs every task of every workload at every
window shift and sweep window the seed can pick, and exits 1 if an output
misses its reference.  The references were pinned on the commit that
added this benchmark.
"""

import json
import sys
import time

import run
import workloads


def _results(argv, cli):
    code, text = run.run_task(cli, argv)
    return code, json.loads(text)["results"]


def pin(cli, refs):
    refs["conditions"] = {}
    for kind, n in workloads.ATLAS_CONDITIONS:
        code, res = _results(["conditions", "--problem", kind, "--n", str(n)],
                             cli)
        refs["conditions"][workloads.problem_key(kind, n)] = {
            "exit": code,
            "entries": {e["name"]: {"status": e["status"],
                                    "evidence": {v["name"]: v["value"]
                                                 for v in e["evidence"]}}
                        for e in res["conditions"]}}
    refs["sweeps"] = {}
    for window in workloads.SWEEP_WINDOWS:
        _, res = _results(workloads.sweep_argv(window), cli)
        refs["sweeps"][workloads.sweep_key(window)] = res["rows"]
    _, res = _results(["table", "g3"], cli)
    refs["g3"] = {str(r["n"]): r["g3_end"] for r in res["rows"]}
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")


def check(cli, refs) -> int:
    inputs = [(w, shift, None) for shift in workloads.WINDOW_SHIFTS
              for w in ("orbit-scan", "orbit-refine")]
    inputs += [("existence-atlas", 0.0, window)
               for window in workloads.SWEEP_WINDOWS]
    tasks = {" ".join(t.argv): t for args in inputs
             for t in workloads.build(*args)}
    bad = 0
    for argv, task in sorted(tasks.items()):
        t0 = time.perf_counter()
        code, text = run.run_task(cli, task.argv)
        error = workloads.check_output(task, code, text, refs)
        bad += error is not None
        print("%-5s %6.2fs %s%s" % ("FAIL" if error else "ok",
                                    time.perf_counter() - t0, argv,
                                    "" if error is None else ": " + error),
              flush=True)
    return 1 if bad else 0


def main(argv):
    sys.path.insert(0, str(run.SRC))
    from schubart import cli
    refs = workloads.load_refs()
    if "--check" not in argv:
        pin(cli, refs)
    return check(cli, workloads.load_refs())


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

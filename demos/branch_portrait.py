"""Trace the collision-manifold branches and export their projections.

The unstable branch through the lower Lagrange point (gamma), its deck
image (gamma'), and the backward stable branch are the curves whose
crossings of the lines theta = m pi/2 define the landmark values v0..v5.
This script traces them for one problem, prints the landmarks with the
sign pattern that drives the existence conditions, and optionally writes
each branch as a (s, theta, v, w) CSV polyline for plotting.
"""

import argparse
import csv

from schubart import manifolds as mf
from schubart import problems as pr

BRANCHES = ("gamma", "gamma'", "stable-of-L'-")


def make_problem(args):
    if args.problem == "pyramidal":
        return pr.pyramidal(args.n, args.mu)
    if args.problem == "spatial":
        return pr.spatial(args.n)
    return pr.planar(args.n)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", default="pyramidal",
                    choices=["pyramidal", "spatial", "planar"])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--csv-prefix", default=None,
                    help="write <prefix>_<branch>.csv polylines")
    args = ap.parse_args()

    problem = make_problem(args)
    print(problem)
    landmarks = {}
    for branch in BRANCHES:
        tr = mf.trace_branch(problem, branch, stop_at_last_landmark=True)
        landmarks.update(tr.landmarks)
        print("%-14s %5d points, ends by %s, landmarks %s"
              % (branch, len(tr.trajectory.s), tr.termination,
                 sorted(tr.landmarks) or "(none)"))
        if args.csv_prefix:
            name = "%s_%s.csv" % (args.csv_prefix,
                                  branch.replace("'", "p").replace("-", "_"))
            with open(name, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["s", "theta", "v", "w"])
                _, v, theta, w = tr.trajectory.y
                writer.writerows(zip(tr.trajectory.s, theta, v, w))
            print("  wrote", name)

    print()
    for key in sorted(landmarks):
        val = landmarks[key]
        print("%s = %+.10f  (%s)" % (key, val, "+" if val > 0 else "-"))
    sep = mf.check_N4(problem)
    print("separation |v2 + v3| = %.6f -> %s"
          % (sep["separation"], "separated" if sep["pass"] else "COINCIDENT"))


if __name__ == "__main__":
    main()

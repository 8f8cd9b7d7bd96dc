"""Hunt the first members of the B family and export one orbit.

B(k) orbits start at a brake point on the partial-collision line
theta = -pi/2, cross it k more times, and then hit a line orthogonally;
reflecting the quarter twice closes the orbit.  The script scans the
brake radius, refines each sign change of the terminal v, prints the
found members, and writes the (theta, r) projection of B(0) for
plotting.
"""

import argparse
import csv

from schubart import orbits as ob
from schubart import problems as pr

WINDOWS = {0: (0.4, 0.7), 1: (0.9, 1.3), 2: (1.3, 1.5)}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--k-max", type=int, default=1)
    ap.add_argument("--csv", default=None, help="projection CSV for B(0)")
    args = ap.parse_args()

    problem = pr.pyramidal(args.n, args.mu)
    print(problem)
    first = None
    for k in range(args.k_max + 1):
        spec = ob.FamilySpec("B", k)
        search = None
        if (args.n, args.mu) == (2, 1.0) and k in WINDOWS:
            lo, hi = WINDOWS[k]
            search = {"param_lo": lo, "param_hi": hi, "grid_points": 9}
        orbit = ob.find_orbit(problem, spec, search)
        checks = ob.verify_periodicity(problem, orbit)
        print("%-6s r0 = %.12f  period(s) = %.6f  residual %.1e  "
              "closure %.1e"
              % (spec, orbit.seed_parameter, orbit.full_period_s,
                 orbit.residual, checks["closure_error"]))
        if k == 0:
            first = orbit

    if args.csv and first is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["theta", "r"])
            r, _, theta, _ = first.reconstructed.y
            writer.writerows(zip(theta, r))
        print("wrote", args.csv)


if __name__ == "__main__":
    main()

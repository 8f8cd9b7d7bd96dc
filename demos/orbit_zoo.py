"""Collect one member of each periodic family for the isosceles problem.

Runs the shooting search for B, Z1, ZB, Z5 and the
less-symmetric B family at pyramidal n = 2, mu = 1, prints each member's
seed, crossing pattern and period, and optionally writes every (theta, r)
projection into one long CSV keyed by family for plotting overlays.

The windows below bracket known members so the demo finishes quickly;
drop the --fast flag to scan each family's full default range instead.
"""

import argparse
import csv

from schubart import orbits as ob
from schubart import problems as pr

MEMBERS = [
    (ob.FamilySpec("B", 0), (0.4, 0.7)),
    (ob.FamilySpec("B", 1), (0.9, 1.3)),
    (ob.FamilySpec("Z1", 1), (-2.66, -2.56)),
    (ob.FamilySpec("ZB", 1, 1), (-2.66, -2.60)),
    (ob.FamilySpec("Z5", 1, 2), (-2.66, -2.61)),
    (ob.FamilySpec("LessSymB", 2, 1), (1.38, 1.46)),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--csv", default=None, help="combined projection CSV")
    ap.add_argument("--fast", action="store_true", default=True)
    ap.add_argument("--full-scan", dest="fast", action="store_false")
    args = ap.parse_args()

    problem = pr.pyramidal(2)
    rows = []
    print("family        seed param       period(s)   pattern")
    for spec, (lo, hi) in MEMBERS:
        search = ({"param_lo": lo, "param_hi": hi, "grid_points": 9}
                  if args.fast else None)
        try:
            orbit = ob.find_orbit(problem, spec, search)
        except ob.OrbitNotFoundError as err:
            print("%-12s  NOT FOUND (%s)" % (spec, err))
            continue
        print("%-12s  %+.12f  %9.5f   %s"
              % (spec, orbit.seed_parameter, orbit.full_period_s,
                 " ".join(ob.prescribed_signature(spec))))
        if args.csv:
            for s, st in orbit.reconstructed.samples:
                rows.append([str(spec), s, st.angle, st.r])

    if args.csv and rows:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["family", "s", "theta", "r"])
            writer.writerows(rows)
        print("wrote", args.csv)


if __name__ == "__main__":
    main()

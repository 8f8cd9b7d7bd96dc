"""Locate the apex-mass threshold where the isosceles argument dies.

For the pyramidal problem with n = 2 (the isosceles three-body problem)
the existence argument needs the second landmark v2 > 0.  Sweeping the
apex mass ratio mu shows v2 decreasing through zero; the refined root is
the threshold beyond which the branch no longer reaches the central line
moving outward.
"""

import argparse

from scipy.optimize import brentq

from schubart import manifolds as mf
from schubart import problems as pr


def v2_of(mu, n=2):
    return mf.landmark_values(pr.pyramidal(n, mu))["v2"]


def step_count(text):
    steps = int(text)
    if steps < 2:
        raise argparse.ArgumentTypeError("must be at least 2, got %d" % steps)
    return steps


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=float, default=0.5)
    ap.add_argument("--hi", type=float, default=3.5)
    ap.add_argument("--steps", type=step_count, default=7,
                    help="number of mu values, at least 2")
    args = ap.parse_args()

    print("mu        v2")
    span = (args.hi - args.lo) / (args.steps - 1)
    values = [(args.lo + k * span) for k in range(args.steps)]
    table = [(mu, v2_of(mu)) for mu in values]
    for mu, v2 in table:
        print("%-8.4f  %+.8f" % (mu, v2))

    brackets = [(a, b) for (a, va), (b, vb) in zip(table, table[1:])
                if va * vb < 0.0]
    if not brackets:
        print("no sign change in [%g, %g]" % (args.lo, args.hi))
        return
    lo, hi = brackets[0]
    root = brentq(v2_of, lo, hi, xtol=1e-6)
    print("\nv2 changes sign at mu = %.6f" % root)


if __name__ == "__main__":
    main()

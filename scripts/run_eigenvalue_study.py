#!/usr/bin/env python3
"""Rayleigh-estimate convergence of the inverse iteration for the
potential eigenvalue problem, across polynomial degrees.

For each degree the estimate history is written relative to the final
estimate at the largest degree.
"""

import argparse
import sys

from spectracube.drivers import SolverOptions, inverse_iteration
from spectracube.presets import PRESETS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degrees", default="10,15,20,30")
    ap.add_argument("--iters", type=int, default=50)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    preset = PRESETS["eig-potential"]
    degrees = [int(t) for t in args.degrees.split(",")]
    results = {}
    for n in degrees:
        opts = preset.extras["options_hook"](SolverOptions())
        lam, _, history, _ = inverse_iteration(
            preset.operator, preset.u0, args.iters, (n, n, n), opts
        )
        results[n] = (lam, history)
        print(f"# n={n:3d}: eigenvalue {lam:.15f}", file=sys.stderr)

    reference = results[max(degrees)][0]
    lines = ["n,iteration,estimate,abs_gap_to_reference"]
    for n in degrees:
        _, history = results[n]
        for s, est in enumerate(history, start=1):
            lines.append(f"{n},{s},{est:.17e},{abs(est - reference):.17e}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sweep the 3-d single-point coupling and tabulate bound states.

For coupling alpha < 0 the pole sits at z0 = 16 pi^2 alpha^2 (bound-state
energy -z0); the sweep reports the located root, the closed form, and the
relative gap, optionally as CSV.

Usage: python scripts/point_interaction_sweep.py --alphas -0.05,-0.1,-0.5
"""

import argparse
import sys

import numpy as np

from kreinx import (
    ExtensionProblem,
    LaplacianPointEvaluator,
    PointSet,
    ThetaMatrix,
    scan_spectrum,
)
from kreinx.csvio import emit_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphas", default="-0.02,-0.05,-0.1,-0.2,-0.5")
    ap.add_argument("-o", "--output", default="-")
    args = ap.parse_args(argv)

    rows = []
    for alpha in (float(a) for a in args.alphas.split(",")):
        if alpha >= 0.0:
            print(f"skipping alpha={alpha}: no bound state", file=sys.stderr)
            continue
        ps = PointSet(3, [[0.0, 0.0, 0.0]])
        problem = ExtensionProblem(LaplacianPointEvaluator(ps), ThetaMatrix([[alpha]]))
        closed = 16.0 * np.pi**2 * alpha**2
        rep = scan_spectrum(problem, (0.5 * closed, 2.0 * closed))
        z0 = rep.roots[0].z0
        rows.append([alpha, z0, -z0, closed, abs(z0 - closed) / closed])

    schema = ["alpha", "z0", "energy", "closed_form", "rel_gap"]
    emit_csv(rows, schema, sys.stdout if args.output == "-" else args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())

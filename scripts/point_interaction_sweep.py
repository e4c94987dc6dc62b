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

    alphas = []
    for alpha in (float(a) for a in args.alphas.split(",")):
        if alpha >= 0.0:
            print(f"skipping alpha={alpha}: no bound state", file=sys.stderr)
            continue
        alphas.append(alpha)
    alpha = np.array(alphas)
    closed = 16.0 * np.pi**2 * alpha**2
    ps = PointSet(3, [[0.0, 0.0, 0.0]])
    z0 = []
    for a, c in zip(alphas, closed.tolist()):
        problem = ExtensionProblem(LaplacianPointEvaluator(ps), ThetaMatrix([[a]]))
        z0.append(scan_spectrum(problem, (0.5 * c, 2.0 * c)).roots[0].z0)
    z0 = np.array(z0)

    schema = ["alpha", "z0", "energy", "closed_form", "rel_gap"]
    columns = [alpha, z0, -z0, closed, np.abs(z0 - closed) / closed]
    emit_csv(columns, schema, sys.stdout if args.output == "-" else args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())

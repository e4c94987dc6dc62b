#!/usr/bin/env python3
"""Cross-check the 1-d single-point spectrum against a finite-difference
eigensolver for the delta well.

The scalar coupling alpha maps to the well -u'' - (1/alpha) delta(x) u; the
pole z0 = 1/(4 alpha^2) of the pencil should match minus the ground-state
energy of the discretized well.

Usage: python scripts/delta_well_crosscheck.py --alphas 0.5,1,2 --h 1e-3
"""

import argparse
import sys

import numpy as np
from scipy.linalg import eigh_tridiagonal

from kreinx import (
    ExtensionProblem,
    LaplacianPointEvaluator,
    PointSet,
    ThetaMatrix,
    scan_spectrum,
)


def fd_ground_energy(coupling: float, length: float, h: float) -> float:
    n = int(round(2.0 * length / h)) + 1
    xs = -length + h * np.arange(n)
    diag = np.full(n - 2, 2.0 / h**2)
    origin = int(np.argmin(np.abs(xs[1:-1])))
    diag[origin] -= coupling / h
    off = np.full(n - 3, -1.0 / h**2)
    w = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0), eigvals_only=True)
    return float(w[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphas", default="0.5,1,2")
    ap.add_argument("--h", type=float, default=1e-3)
    ap.add_argument("--length", type=float, default=20.0)
    args = ap.parse_args(argv)

    print(f"{'alpha':>8} {'z0 (pencil)':>16} {'-E (fd well)':>16} {'rel gap':>12}")
    for alpha in (float(a) for a in args.alphas.split(",")):
        if alpha <= 0.0:
            print(f"{alpha:>8}  no bound state for alpha <= 0", file=sys.stderr)
            continue
        ps = PointSet(1, [0.0])
        problem = ExtensionProblem(LaplacianPointEvaluator(ps), ThetaMatrix([[alpha]]))
        closed = 1.0 / (4.0 * alpha**2)
        rep = scan_spectrum(problem, (0.5 * closed, 2.0 * closed))
        z0 = rep.roots[0].z0
        e_fd = fd_ground_energy(1.0 / alpha, args.length, args.h)
        print(f"{alpha:>8g} {z0:>16.10f} {-e_fd:>16.10f} {abs(z0 + e_fd) / z0:>12.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

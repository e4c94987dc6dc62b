"""The benchmark's four workloads: seeded inputs and per-request checks.

Every workload is a fixed list of request slots.  A slot fixes what sets
a request's cost (backend, dimension, number of points, roots in the
scan window, grid and matrix sizes); the workload seed draws only the
values (positions, couplings, windows, z, f), so the summed per-slot
cost barely moves from seed to seed.  Each slot becomes one ``Request``:
the CLI arguments, the JSON config it reads, and a check that turns the
exit code and CSV bytes into a list of failed checks (empty on success).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference as ref


@dataclass
class Request:
    name: str
    argv: list
    check: Callable[[bytes], list]
    config: Optional[dict] = None


def read_csv(data: bytes):
    lines = data.decode("utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _spectrum_roots(data: bytes, n: int):
    """(z0, multiplicity) per CSV row of a spectrum output."""
    header, rows = read_csv(data)
    want = (["root_index", "z0", "energy", "multiplicity", "residual"]
            + [f"Q_re_{j + 1}" for j in range(n)] + [f"Q_im_{j + 1}" for j in range(n)])
    if header != want:
        raise ValueError(f"unexpected header {header[:6]}")
    return [(float(row[1]), int(row[3])) for row in rows]


def _pencil_checks(data, n, pencil_at, expected, tol_root):
    """Root count (with multiplicity) against inertia, and the residual
    ``min |eig (theta + gamma(z0))|`` of every reported root."""
    roots = _spectrum_roots(data, n)
    fails = []
    count = sum(m for _, m in roots)
    if count != expected:
        fails.append(f"inertia: {count} roots reported, inertia count {expected}")
    for z0, _ in roots:
        res = float(np.min(np.abs(ref.branches(pencil_at(z0)))))
        if not res <= tol_root:
            fails.append(f"residual: {res:.3e} > tol_root {tol_root:.1e} at z0={z0!r}")
    return roots, fails


# --------------------------------------------------------------------------
# point_scan: spectrum requests on Laplacian point sets.  93% of such a scan
# is the scalar gamma_matrix loop (plus K0 in 2-d); the pencil is cheap.

TOL_ROOT = 1e-10
# (label, dim, points, roots in the window, scan grid)
POINT_SLOTS = (
    ("1d-N1", 1, 1, 1, 64),
    ("2d-N1", 2, 1, 1, 64),
    ("3d-N1", 3, 1, 1, 64),
    ("1d-N12", 1, 12, 4, 64),
    ("2d-N8", 2, 8, 4, 64),
    ("3d-N16", 3, 16, 8, 64),
)
# side of the box the points are drawn in, and their least separation
BOX = {1: 12.0, 2: 5.0, 3: 4.0}
MIN_SEPARATION = 0.5
# couplings: c I plus symmetric noise, c drawn from COUPLING, for N > 1;
# the scalar coupling of a single point is drawn from SINGLE
COUPLING = {1: (-0.5, -0.3), 2: (-0.25, -0.1), 3: (-0.6, -0.3)}
SINGLE = {1: (0.3, 1.0), 2: (-0.2, 0.1), 3: (-0.2, -0.05)}
SINGLE_REL_TOL = 1e-8


def _points(rng, dim, n):
    pts = []
    while len(pts) < n:
        p = rng.uniform(0.0, BOX[dim], size=dim)
        if all(np.linalg.norm(p - q) >= MIN_SEPARATION for q in pts):
            pts.append(p)
    return np.array(pts)


def _coupling(rng, n, lo, hi):
    noise = rng.normal(scale=0.05, size=(n, n))
    return rng.uniform(lo, hi) * np.eye(n) + (noise + noise.T) / 2.0


def point_scan(seed: int) -> list:
    out = []
    for i, (label, dim, n, k, grid) in enumerate(POINT_SLOTS):
        rng = np.random.default_rng([seed, i])
        if n == 1:
            pts = np.zeros((1, dim))
            theta = np.array([[rng.uniform(*SINGLE[dim])]])
        else:
            pts = _points(rng, dim, n)
            theta = _coupling(rng, n, *COUPLING[dim])

        def pencil_at(x, pts=pts, theta=theta, dim=dim):
            return theta + ref.laplacian_gamma(dim, pts, x)

        if n == 1:
            closed = ref.single_point_root(dim, theta[0, 0])
            a, b = closed * rng.uniform(0.3, 0.7), closed * rng.uniform(1.5, 3.0)
        else:
            closed = None
            roots = ref.branch_roots(pencil_at, 1e-8, 1e4)
            k = min(k, len(roots))
            first = int(rng.integers(0, len(roots) - k + 1))
            a, b = ref.window_around(roots, first, k, 1e-8)
        expected = ref.inertia_count(pencil_at, a, b)

        def check(data, n=n, pencil_at=pencil_at, expected=expected, closed=closed):
            roots, fails = _pencil_checks(data, n, pencil_at, expected, TOL_ROOT)
            if closed is not None:
                for z0, _ in roots:
                    err = abs(z0 - closed) / closed
                    if not err <= SINGLE_REL_TOL:
                        fails.append(f"closed_form: rel err {err:.3e} > {SINGLE_REL_TOL:.0e}")
            return fails

        config = {
            "backend": f"laplacian{dim}d",
            "points": pts[:, 0].tolist() if dim == 1 else pts.tolist(),
            "theta": theta.tolist(),
            "scan": {"a": float(a), "b": float(b), "grid": grid},
            "tolerances": {"tol_root": TOL_ROOT},
        }
        out.append(Request(f"point_scan/{label}", ["spectrum"], check, config))
    return out


# --------------------------------------------------------------------------
# symbol_scan: the same scan over the anchored multiplier backend, where one
# pencil evaluation is ~10 ms of QUADPACK and thousands of symbol calls.
# It is left out of BENCHMARK.json: across ten seeds its op_p10_s spread
# 0.22-0.35 of the median on a contended 2-vCPU host, above the largest
# allowed bound.  It still runs by name, and its traced call counts
# (pencil evaluations per root above all) are exact.

SYMBOL_GRID = 4
# -xi^2 has the closed-form Laplacian kernel; the quartic term makes the
# symbol generic.  A request takes ~55 pencil evaluations (~0.4 s), so two
# slots keep enough repeats per run for a steady low quantile.  Symbols with cosine terms are left out: on them the
# backend's QUADPACK error estimate sometimes misses its target mid-scan
# (TailEstimateFailed), and a workload must not fail at the parent commit.
SYMBOL_SLOTS = (
    ("xi2", 2, (0.0, 0.0)),
    ("xi4", 4, (0.05, 0.2)),
)
SYMBOL_ROOT_REL_TOL = 1e-8
SYMBOL_HI = 1e3
# QUADPACK's cycle count, and with it the cost of a pencil evaluation,
# jumps with the distance between the two points, so it is fixed and the
# seed draws the symbol, the anchor and the coupling.  At a distance of 0.5
# the backend's error estimate now and then misses its target mid-scan
# (TailEstimateFailed, exit 3); at 1.0 it met it in 800 sampled evaluations.
SYMBOL_GAP = 1.0


def symbol_scan(seed: int) -> list:
    out = []
    for i, (label, degree, (qlo, qhi)) in enumerate(SYMBOL_SLOTS):
        rng = np.random.default_rng([seed, 100 + i])
        poly = np.zeros(degree + 1)
        poly[2] = -1.0
        poly[degree] -= rng.uniform(qlo, qhi)
        y = np.array([0.0, SYMBOL_GAP])
        w0 = float(rng.uniform(1.0, 2.0))
        off = float(rng.uniform(-0.03, 0.03))
        theta = np.array([[rng.uniform(-0.25, -0.1), off], [off, rng.uniform(-0.25, -0.1)]])
        if degree == 2:
            anchor = ref.laplacian_gamma(1, y, w0)

            def pencil_at(x, theta=theta, anchor=anchor, y=y):
                return theta + ref.laplacian_gamma(1, y, x) - anchor
        else:
            def pencil_at(x, theta=theta, poly=poly, y=y, w0=w0):
                return theta + ref.multiplier_gamma(poly, y, x, w0)
        # theta is negative definite, so every root lies above the anchor
        roots = ref.branch_roots(pencil_at, w0, SYMBOL_HI)
        upper = roots[1] if len(roots) > 1 else SYMBOL_HI
        a = w0 + rng.uniform(0.3, 0.6) * (roots[0] - w0)
        b = roots[0] + rng.uniform(0.3, 0.6) * min(upper - roots[0], roots[0])
        expected = ref.inertia_count(pencil_at, a, b)
        brent = roots[0] if degree == 2 else None

        def check(data, pencil_at=pencil_at, expected=expected, brent=brent):
            roots, fails = _pencil_checks(data, 2, pencil_at, expected, TOL_ROOT)
            if brent is not None:
                for z0, _ in roots:
                    err = abs(z0 - brent) / brent
                    if not err <= SYMBOL_ROOT_REL_TOL:
                        fails.append(f"brentq_root: rel err {err:.3e} > {SYMBOL_ROOT_REL_TOL:.0e}")
            return fails

        config = {
            "backend": "multiplier1d",
            "points": y.tolist(),
            "symbol": {"poly": poly.tolist(), "anchor": w0},
            "theta": theta.tolist(),
            "scan": {"a": float(a), "b": float(b), "grid": SYMBOL_GRID},
            "tolerances": {"tol_root": TOL_ROOT},
        }
        out.append(Request(f"symbol_scan/{label}", ["spectrum"], check, config))
    return out


# --------------------------------------------------------------------------
# resolvent_sweep: no scan; five dense n x n inverses per matrix-backend
# apply and a dense n x n kernel per 1-d grid apply, read from large JSON
# configs and written as one CSV row per node.

MATRIX_SLOTS = (("matrix-n400", 400, 8),)
GRID_SLOTS = (("grid-n1500", 1500, 2), ("grid-n3000", 3000, 4))
GRID_HALF_WIDTH = 14.0
ORACLE_TOL = 1e-9


def _offaxis_z(rng):
    return complex(rng.uniform(0.5, 2.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))


def _resolvent_rows(data: bytes, first: str):
    header, rows = read_csv(data)
    if header != [first, "f_re", "f_im", "rf_re", "rf_im"]:
        raise ValueError(f"unexpected header {header}")
    arr = np.array([[float(v) for v in row] for row in rows])
    return arr[:, 0], arr[:, 3] + 1j * arr[:, 4]


def _matrix_request(rng, label, n, nc):
    from kreinx.krein import ThetaMatrix
    from kreinx.matrixmodel import MatrixModel, woodbury_extension

    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = rng.uniform(0.1, 10.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    a = (q * spectrum) @ q.T
    a = (a + a.T) / 2.0
    tau = rng.standard_normal((nc, n))
    m = rng.standard_normal((nc, nc))
    theta = (m + m.T) / 2.0
    z = _offaxis_z(rng)
    f = rng.standard_normal(n)

    def check(data):
        _, rf = _resolvent_rows(data, "index")
        b = woodbury_extension(MatrixModel(a, tau), ThetaMatrix(theta))
        want = np.linalg.solve(z * np.eye(n) - b, f)
        err = float(np.linalg.norm(rf - want) / np.linalg.norm(want))
        return [] if err <= ORACLE_TOL else [f"oracle: rel err {err:.3e} > {ORACLE_TOL:.0e}"]

    config = {
        "backend": "matrix",
        "matrix": {"a": a.tolist(), "tau": tau.tolist()},
        "theta": theta.tolist(),
        "z": [z.real, z.imag],
        "f": f.tolist(),
    }
    return Request(f"resolvent_sweep/{label}", ["resolvent"], check, config)


def _grid_request(rng, label, n, npts):
    y = np.sort(_points(rng, 1, npts)[:, 0] - BOX[1] / 2.0) / 2.0
    off = rng.normal(scale=0.1, size=(npts, npts))
    theta = np.diag(rng.uniform(-1.0, 1.0, size=npts)) + (off + off.T) / 2.0
    z = _offaxis_z(rng)
    center = float(rng.uniform(-2.0, 2.0))
    width = float(rng.uniform(0.5, 1.0))
    xs = np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, n)
    f = np.exp(-((xs - center) ** 2) / (2.0 * width**2))
    h = xs[1] - xs[0]
    want = ref.grid_resolvent(y, theta, z, xs, center, width)
    # the trapezoid actions are O(h^2) accurate; max|f| = 1
    tol = h * h

    def check(data):
        x, rf = _resolvent_rows(data, "x")
        if x.shape != xs.shape or np.max(np.abs(x - xs)) > 1e-12:
            return ["grid: output nodes differ from the config grid"]
        err = float(np.max(np.abs(rf - want)))
        return [] if err <= tol else [f"erfc_convolution: max err {err:.3e} > h^2 = {tol:.3e}"]

    config = {
        "backend": "laplacian1d",
        "points": y.tolist(),
        "theta": theta.tolist(),
        "z": [z.real, z.imag],
        "f": f.tolist(),
        "grid1d": {"lo": -GRID_HALF_WIDTH, "hi": GRID_HALF_WIDTH, "n": n},
    }
    return Request(f"resolvent_sweep/{label}", ["resolvent"], check, config)


def resolvent_sweep(seed: int) -> list:
    out = []
    for i, (label, n, nc) in enumerate(MATRIX_SLOTS):
        out.append(_matrix_request(np.random.default_rng([seed, 200 + i]), label, n, nc))
    for i, (label, n, npts) in enumerate(GRID_SLOTS):
        out.append(_grid_request(np.random.default_rng([seed, 300 + i]), label, n, npts))
    return out


# --------------------------------------------------------------------------
# verify_suite: `kreinx verify` over many tiny matrix models (n <= 12) plus
# the fixed kernel quadrature checks; the only user of the verify layer.

VERIFY_SLOTS = 4
VERIFY_MODELS = 6
VERIFY_REQUIRED = (
    "extension/oracle_agreement",
    "kernel1d/difference",
    "kernel3d/difference",
    "multiplier/laplacian_crosscheck",
)


def _verify_check(data):
    header, rows = read_csv(data)
    if header != ["check", "residual", "tolerance", "pass"]:
        return [f"verify: unexpected header {header}"]
    fails = []
    names = {row[0] for row in rows}
    for name in VERIFY_REQUIRED:
        if name not in names:
            fails.append(f"verify: check {name} missing")
    for name, residual, tolerance, passed in rows:
        if passed != "1" or not float(residual) <= float(tolerance):
            fails.append(f"verify row {name}: residual {residual} tol {tolerance} pass {passed}")
    return fails


def verify_suite(seed: int) -> list:
    rng = np.random.default_rng([seed, 400])
    out = []
    for i in range(VERIFY_SLOTS):
        s = int(rng.integers(0, 2**31))
        out.append(Request(
            f"verify_suite/seed{i}",
            ["verify", "--seed", str(s), "--models", str(VERIFY_MODELS)],
            _verify_check,
        ))
    return out


WORKLOADS = {
    "point_scan": point_scan,
    "symbol_scan": symbol_scan,
    "resolvent_sweep": resolvent_sweep,
    "verify_suite": verify_suite,
}

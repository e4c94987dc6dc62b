"""Independent references for the benchmark's correctness gates.

The Laplacian trace matrices, the single-point closed forms, the
multiplier quadrature and the Gaussian resolvent convolution are written
out here from the formulas, with scipy's K0 and erfcx, so a check never
runs the code it checks.  The one exception is the matrix-backend oracle,
which by design is kreinx's own dense ``woodbury_extension``: it shares no
code with the pencil route of ``krein_apply``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, optimize, special

EULER = float(np.euler_gamma)


def laplacian_gamma(dim: int, points, z: complex) -> np.ndarray:
    """Renormalized trace matrix ``[(g0 - gz)(|y_j - y_k|)]`` of a point set."""
    pts = np.asarray(points, dtype=float).reshape(len(points), dim)
    kappa = np.sqrt(complex(z))
    r = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    off = ~np.eye(len(pts), dtype=bool)
    ro = r[off]
    out = np.empty(r.shape, dtype=complex)
    if dim == 1:
        out[off] = -ro / 2.0 - np.exp(-kappa * ro) / (2.0 * kappa)
        diag = -1.0 / (2.0 * kappa)
    elif dim == 2:
        out[off] = (-np.log(ro) - special.kv(0, kappa * ro)) / (2.0 * math.pi)
        diag = (np.log(kappa / 2.0) + EULER) / (2.0 * math.pi)
    else:
        out[off] = -np.expm1(-kappa * ro) / (4.0 * math.pi * ro)
        diag = kappa / (4.0 * math.pi)
    np.fill_diagonal(out, diag)
    return out


def single_point_root(dim: int, theta: float) -> float:
    """Pole of the one-point Laplacian pencil ``theta + gamma(z)``."""
    if dim == 1:
        return 1.0 / (4.0 * theta**2)
    if dim == 2:
        return 4.0 * math.exp(-4.0 * math.pi * theta - 2.0 * EULER)
    return 16.0 * math.pi**2 * theta**2


def branches(pencil: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the hermitian part of a pencil value."""
    return np.linalg.eigvalsh((pencil + pencil.conj().T) / 2.0)


def neg_count(pencil: np.ndarray) -> int:
    return int(np.sum(branches(pencil) < 0.0))


def inertia_count(pencil_at, a: float, b: float) -> int:
    """Roots in (a, b] of an increasing pencil, by Sylvester inertia."""
    return neg_count(pencil_at(a)) - neg_count(pencil_at(b))


def branch_roots(pencil_at, lo: float, hi: float) -> list:
    """Every root in (lo, hi) of an increasing pencil, one per branch.

    Each sorted branch is increasing, so it crosses zero at most once and
    ``brentq`` on that branch finds the crossing.
    """
    at_lo = branches(pencil_at(lo))
    at_hi = branches(pencil_at(hi))
    roots = []
    for k in range(at_lo.size):
        if at_lo[k] < 0.0 < at_hi[k]:
            roots.append(
                optimize.brentq(
                    lambda x: float(branches(pencil_at(x))[k]), lo, hi,
                    xtol=1e-300, rtol=1e-15, maxiter=400,
                )
            )
    return sorted(roots)


def window_around(roots: list, first: int, count: int, floor: float) -> tuple:
    """Window holding roots[first : first + count] and no other root.

    Interior ends sit halfway between neighbouring roots; outer ends sit
    at half the first root (but above ``floor``) and 1.5 times the last.
    """
    lo = roots[first]
    hi = roots[first + count - 1]
    a = 0.5 * (roots[first - 1] + lo) if first > 0 else max(0.5 * lo, floor)
    last = first + count
    b = 0.5 * (hi + roots[last]) if last < len(roots) else 1.5 * hi
    return a, b


def multiplier_gamma(poly, points, z: float, w0: float) -> np.ndarray:
    """Anchored trace matrix ``gamma(z) - gamma(w0)`` of an even polynomial symbol.

    Entry (j, k) is ``(1/pi) int_0^inf cos(xi x) (z - w0) /
    ((w0 - m) (z - m)) d xi`` at ``x = y_j - y_k``, for real z and w0
    above the symbol's range.  QUADPACK's cosine-weighted Fourier rule
    runs on the real integrand directly.
    """
    poly = np.asarray(poly, dtype=float)

    def f(xi):
        mx = np.polynomial.polynomial.polyval(xi, poly)
        return (z - w0) / ((w0 - mx) * (z - mx))

    y = np.asarray(points, dtype=float)
    disp = np.abs(y[:, None] - y[None, :])
    values = {}
    # the targets sit at roundoff level, so QUADPACK's "cannot reach the
    # tolerance" warnings carry no information; the residual checks built
    # on these values pass at 1e-14 and below
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for x in np.unique(disp):
            if x == 0.0:
                v, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=500)
            else:
                v, _ = integrate.quad(
                    f, 0.0, np.inf, weight="cos", wvar=float(x),
                    epsabs=1e-14, limit=500, limlst=200,
                )
            values[float(x)] = v / math.pi
    return np.vectorize(values.__getitem__)(disp).astype(complex)


def gaussian_convolution(xs, kappa: complex, center: float, width: float) -> np.ndarray:
    """``int e^{-kappa |x - y|} / (2 kappa) exp(-(y - c)^2 / (2 s^2)) dy``.

    Each half-line integral is ``s sqrt(pi/2) e^{-u^2/(2 s^2)} erfcx(w)``
    with ``u = +-(x - c)`` and ``w = (kappa s^2 - u) / (s sqrt 2)``; where
    Re w < 0 the equal form ``e^{kappa^2 s^2 / 2 - kappa u} erfc(w)`` is
    used instead, because erfcx overflows there.
    """
    s = float(width)
    u = np.asarray(xs, dtype=float) - float(center)

    def half(u):
        w = (kappa * s * s - u) / (s * math.sqrt(2.0))
        out = np.empty(u.shape, dtype=complex)
        pos = w.real >= 0.0
        out[pos] = np.exp(-u[pos] ** 2 / (2.0 * s * s)) * special.erfcx(w[pos])
        neg = ~pos
        out[neg] = np.exp(kappa**2 * s * s / 2.0 - kappa * u[neg]) * special.erfc(w[neg])
        return s * math.sqrt(math.pi / 2.0) * out

    return (half(u) + half(-u)) / (2.0 * kappa)


def grid_resolvent(points, theta, z: complex, xs, center: float, width: float) -> np.ndarray:
    """Perturbed 1-d resolvent applied to a Gaussian, on the nodes ``xs``.

    ``R f + sum_j c_j e^{-kappa |x - y_j|} / (2 kappa)`` with charges
    ``c = (theta + gamma(z))^{-1} (R f)(y)``, all in closed form.
    """
    kappa = np.sqrt(complex(z))
    y = np.asarray(points, dtype=float)
    traces = gaussian_convolution(y, kappa, center, width)
    charges = np.linalg.solve(np.asarray(theta) + laplacian_gamma(1, y, z), traces)
    sources = np.exp(-kappa * np.abs(np.asarray(xs)[:, None] - y[None, :])) / (2.0 * kappa)
    return gaussian_convolution(xs, kappa, center, width) + sources @ charges

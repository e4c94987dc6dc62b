"""Free-space Green's functions of the Laplacian with point traces.

Supplies the closed-form kernels in dimensions 1, 2, 3:

    g0   fundamental solution of -Lap           (zero-energy kernel)
    gz   fundamental solution of -Lap + z       (decaying for z off (-inf, 0])

with the principal square root (Re sqrt(z) > 0); the negative real axis
is the essential spectrum and is excluded.  The renormalized trace
matrix of a point set has off-diagonal entries ``(g0 - gz)(distance)``
and the finite diagonal limit ``lim_{r->0} (g0 - gz)(r)``, which removes
the kernel singularity once and for all at the zero-energy anchor (no
arbitrary spectral shift enters).

On the positive real axis sqrt(z) is a float, so the kernels and the
trace matrix are real (float64); off it they are complex.  Dimension 2
takes K0 from ``bessel`` (Cephes ``k0`` on a real argument, AMOS ``kv``
on a complex one, imported on first use).  Each kernel has one
implementation, an array expression over all radii at once
(``_g0_array``, ``_gz_array``, ``_diagonal``); the trace matrix and the
source superpositions call it directly, and the public ``g0``, ``gz``
and ``renormalized_diagonal`` are its checked faces for one radius or
an array of radii.

The product matrix (trace at w of the source at z) comes from
``gbreve_g_quadrature_1d`` and ``gbreve_g_radial_3d``: one adaptive
``quad`` of kernel products per distinct distance, independent of the
closed-form identity ``gamma(z) - gamma(w) = (z - w) gbreve_g(w, z)``
that ``verify`` checks with them.
``quad`` is a module attribute looked up at call time, a shim that
imports ``scipy.integrate`` on its first call, so importing this module
loads no scipy.

The eigenfunction of a pole is a source superposition
(``eigenfunction_eval``), and its norm comes from the product matrix
(``eigenfunction_l2_norm``).
"""

from __future__ import annotations

import math

import numpy as np

from .bessel import _k0
from .errors import (
    BranchCut,
    EvaluationAtSingularity,
    GridTooCoarse,
    InvariantError,
    NonpositiveRadius,
    UnsupportedAction,
)
from .krein import EvaluationPoint, GammaEvaluator, _admit, _one_point

EULER_GAMMA = float(np.euler_gamma)


def _quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


quad = _quad


def _sqrt_principal(z: complex) -> complex:
    """sqrt(z), a float for real z > 0; BranchCut unless Re sqrt(z) > 0 (2j at -4 + 5e-324j)."""
    z = complex(z)
    kappa = math.sqrt(z.real) if z.imag == 0.0 and z.real > 0.0 else complex(np.sqrt(z))
    if not kappa.real > 0.0:
        raise BranchCut(f"z={z!r} is on or next to the branch cut (-inf, 0]")
    return kappa


def _check_dim(dim: int) -> None:
    if dim not in (1, 2, 3):
        raise InvariantError(f"dim must be 1, 2, or 3, got {dim!r}")


def _diagonal(dim: int, kappa: complex) -> complex:
    """lim_{r -> 0} (g0 - gz)(r) at kappa = sqrt(z)."""
    if dim == 1:
        return -1.0 / (2.0 * kappa)
    if dim == 2:
        return (np.log(kappa / 2.0) + EULER_GAMMA) / (2.0 * math.pi)
    return kappa / (4.0 * math.pi)


def _g0_array(dim: int, r: np.ndarray) -> np.ndarray:
    """g0 on an array of radii r > 0."""
    if dim == 1:
        return -r / 2.0
    if dim == 2:
        return -np.log(r) / (2.0 * math.pi)
    return 1.0 / (4.0 * math.pi * r)


def _gz_array(dim: int, r: np.ndarray, kappa: complex) -> np.ndarray:
    """gz on an array of radii (r > 0 in dims 2 and 3), kappa = sqrt(z)."""
    if dim == 1:
        return np.exp(-kappa * r) / (2.0 * kappa)
    if dim == 2:
        return _k0(kappa * r) / (2.0 * math.pi)
    return np.exp(-kappa * r) / (4.0 * math.pi * r)


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights of n uniform nodes with step h."""
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def _checked_radii(r, positive: bool, what: str) -> np.ndarray:
    """``r`` as a float array; NonpositiveRadius at its first radius that
    is not > 0 (``positive``) or not >= 0."""
    r = np.asarray(r, dtype=float)
    bad = ~(r > 0.0) if positive else ~(r >= 0.0)
    if bad.any():
        raise NonpositiveRadius(f"{what}, got {float(r[bad].flat[0])!r}")
    return r


def g0(dim: int, r):
    """g0 at one radius r > 0 (a float) or an array of radii (an array)."""
    _check_dim(dim)
    r = _checked_radii(r, True, "g0 requires r > 0")
    return _g0_array(dim, r)


def gz(dim: int, r, z: complex):
    """gz at one radius or an array of radii: r >= 0 in dim 1, r > 0 in
    dims 2 and 3.  Real (float64) for real z > 0, complex otherwise."""
    _check_dim(dim)
    kappa = _sqrt_principal(z)
    what = "gz requires r >= 0 in dim 1" if dim == 1 else f"gz requires r > 0 in dim {dim}"
    r = _checked_radii(r, dim != 1, what)
    return _gz_array(dim, r, kappa).reshape(r.shape)[()]


def renormalized_diagonal(dim: int, z: complex) -> complex:
    """lim_{r -> 0} (g0 - gz)(r); finite in every dimension."""
    _check_dim(dim)
    return _diagonal(dim, _sqrt_principal(z))


class PointSet:
    """Finitely many pairwise-distinct interaction points in dim 1, 2 or 3,
    whose squared pairwise distances neither overflow nor underflow to 0.

    One-dimensional points may be given as plain floats.  ``distances``
    is the read-only matrix of pairwise Euclidean distances; ``gamma_matrix``
    reads its z-independent part, g0 of the distances with a unit diagonal.
    """

    __slots__ = ("dim", "points", "distances", "_radii", "_g0")

    def __init__(self, dim: int, points):
        _check_dim(dim)
        pts = np.array(points, dtype=float)
        if pts.ndim == 1:
            if dim != 1:
                raise InvariantError(
                    f"flat coordinate list requires dim=1, got dim={dim}"
                )
            pts = pts.reshape(-1, 1)
        problems = []
        if pts.ndim != 2 or pts.shape[1] != dim:
            problems.append(
                f"points must have shape (N, {dim}), got {pts.shape}"
            )
        elif pts.shape[0] < 1:
            problems.append("need at least one point")
        elif not np.all(np.isfinite(pts)):
            problems.append("point coordinates must be finite")
        else:
            with np.errstate(over="ignore"):
                d = pts[:, None, :] - pts[None, :, :]
                dist = np.sqrt((d * d).sum(-1))
            if not np.all(np.isfinite(dist)):
                problems.append("points are too far apart: a squared pairwise distance overflows")
            distinct = (d != 0.0).any(-1)
            if not distinct[~np.eye(pts.shape[0], dtype=bool)].all():
                problems.append("coincident points are not allowed")
            if (dist[distinct] == 0.0).any():
                problems.append("points are too close: a squared pairwise distance underflows to 0")
        if problems:
            raise InvariantError(problems)
        pts.flags.writeable = False
        dist.flags.writeable = False
        self.dim = dim
        self.points = pts
        self.distances = dist
        # a unit radius on the diagonal keeps the kernels finite there;
        # adding zero leaves every off-diagonal distance exact
        self._radii = dist + np.eye(pts.shape[0])
        self._g0 = _g0_array(dim, self._radii)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def displacements_1d(self) -> np.ndarray:
        """Signed pairwise displacements y_j - y_k (dim 1 only)."""
        if self.dim != 1:
            raise InvariantError("signed displacements only exist in dim 1")
        y = self.points[:, 0]
        return y[:, None] - y[None, :]

    def __repr__(self):
        return f"PointSet(dim={self.dim}, n={self.n_points})"


def gamma_matrix(ps: PointSet, z: complex) -> np.ndarray:
    """Renormalized trace matrix of the point set at z.

    Entry (j, k) is ``(g0 - gz)(|y_j - y_k|)`` for j != k; the diagonal
    carries the renormalized limit.  Real symmetric (float64) for real
    z > 0, where sqrt(z) is real; complex otherwise.
    """
    kappa = _sqrt_principal(z)
    out = ps._g0 - _gz_array(ps.dim, ps._radii, kappa)
    out.reshape(-1)[:: ps.n_points + 1] = _diagonal(ps.dim, kappa)
    return out


def _resolved_kappa(h: float, z: complex) -> complex:
    """sqrt(z), once the grid step h resolves the kernel decay length:
    raises GridTooCoarse when h exceeds a quarter of 1 / Re sqrt(z)."""
    kappa = _sqrt_principal(z)
    if h > 1.0 / (4.0 * kappa.real):
        raise GridTooCoarse(
            f"step {h:.3e} exceeds 1/(4 Re sqrt(z)) = {1.0 / (4.0 * kappa.real):.3e}"
        )
    return kappa


def point_source_sum(ps: PointSet, z: complex, coeffs, xs) -> np.ndarray:
    """Superposition ``sum_j coeffs_j gz(|x - y_j|)`` at the points ``xs``.

    Linear in ``coeffs`` (callers that hold charge vectors in the
    conjugate-linear convention conjugate them first).  In dims 2 and 3,
    evaluation at an interaction point raises EvaluationAtSingularity.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (ps.n_points,):
        raise InvariantError(
            f"expected {ps.n_points} coefficients, got shape {coeffs.shape}"
        )
    xs = np.array(xs, dtype=float)
    scalar = xs.ndim == 0 if ps.dim == 1 else xs.ndim == 1
    pts = np.atleast_2d(xs.reshape(-1, ps.dim) if ps.dim > 1 else xs.reshape(-1, 1))
    d = pts[:, None, :] - ps.points[None, :, :]
    r = np.sqrt((d * d).sum(-1))
    kappa = _sqrt_principal(z)
    if ps.dim > 1 and np.any(r == 0.0):
        raise EvaluationAtSingularity(
            "evaluation point coincides with an interaction point"
        )
    out = _gz_array(ps.dim, r, kappa) @ coeffs
    return complex(out[0]) if scalar else out


def _two_center_integral(
    dim: int, d: float, kw: complex, kz: complex, bound: float
) -> complex:
    """``integral gz(|x|; w) gz(|x - y|; z) dx`` over R^dim for |y| = d,
    with kw = sqrt(w) and kz = sqrt(z), to 1e-13 of ``bound``.

    Dim 1 integrates the kernel product on the line, split at the kinks
    x = 0 and x = d.  Dim 3 does the angular integral analytically,
    leaving one radial integral split at r = d.  Float kw and kz (w, z >
    0) give a float integrand (``math.exp``), one QUADPACK pass per piece.
    """
    real = isinstance(kw, float) and isinstance(kz, float)
    exp = math.exp if real else np.exp
    if dim == 1:
        def integrand(x):
            return exp(-kw * abs(x)) / (2.0 * kw) * (exp(-kz * abs(x - d)) / (2.0 * kz))

        cuts, scale = sorted({-np.inf, 0.0, d, np.inf}), 1.0
    elif d == 0.0:
        def integrand(r):
            return exp(-(kw + kz) * r) / (4.0 * math.pi)

        cuts, scale = (0.0, np.inf), 1.0
    else:
        def integrand(r):
            return exp(-kw * r) * (exp(-kz * abs(r - d)) - exp(-kz * (r + d)))

        cuts, scale = (0.0, d, np.inf), 8.0 * math.pi * d * kz
    tol = 1e-13 * bound * abs(scale)
    total = sum(
        quad(integrand, a, b, complex_func=not real, epsabs=tol, epsrel=0.0)[0]
        for a, b in zip(cuts, cuts[1:])
    )
    return total / scale


def _product_matrix(ps: PointSet, w: complex, z: complex) -> np.ndarray:
    """Product matrix in dims 1 and 3 by adaptive quadrature of kernel
    products (independent of the closed-form difference identity it is
    used to test).

    Entry (k, j) is the two-center integral of ``gz(.; w)`` about y_k
    against ``gz(.; z)`` about y_j; it depends on the distance alone, so
    each distinct distance is integrated once.  Every entry is at most
    ``|gz(.; w)|_2 |gz(.; z)|_2`` in modulus (Cauchy-Schwarz), which sets
    the absolute error target: a relative one cannot be met on a real or
    imaginary part that vanishes.
    """
    if ps.dim not in (1, 3):
        raise UnsupportedAction(f"no product-matrix quadrature in dim {ps.dim}")
    kw, kz = _sqrt_principal(w), _sqrt_principal(z)
    denom = 4.0 * abs(kw * kz) if ps.dim == 1 else 8.0 * math.pi
    bound = 1.0 / (denom * math.sqrt(kw.real * kz.real))
    return _per_key_matrix(
        ps.distances,
        lambda d: _two_center_integral(ps.dim, d, kw, kz, bound),
    )


def _per_key_matrix(keys: np.ndarray, entry) -> np.ndarray:
    """Complex matrix of ``entry(key)`` over a matrix of float keys (a
    distance or a signed displacement), calling ``entry`` once per
    distinct key."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    values = np.array([entry(float(key)) for key in distinct], dtype=complex)
    return values[inverse].reshape(keys.shape)


def gbreve_g_radial_3d(ps: PointSet, w: complex, z: complex) -> np.ndarray:
    """Product matrix in dim 3 by radial quadrature."""
    if ps.dim != 3:
        raise InvariantError("radial product matrix requires dim 3")
    return _product_matrix(ps, w, z)


def gbreve_g_quadrature_1d(ps: PointSet, w: complex, z: complex) -> np.ndarray:
    """Product matrix in dim 1 by quadrature on the line."""
    if ps.dim != 1:
        raise InvariantError("line product matrix requires dim 1")
    return _product_matrix(ps, w, z)


def eigenfunction_eval(ps: PointSet, q, z0, xs):
    """Eigenfunction values ``sum_j conj(q_j) gz(|x - y_j|; z0)``.

    Unnormalized; the charge vector enters conjugate-linearly.  In dims
    2 and 3 evaluation at an interaction point raises
    EvaluationAtSingularity.
    """
    q = np.asarray(q, dtype=complex)
    return point_source_sum(ps, z0, np.conj(q), xs)


def eigenfunction_l2_norm(ps: PointSet, q, z0) -> float:
    """Numeric L2 norm of the eigenfunction, ``sqrt(Re q^H S q)`` with the
    product matrix ``S = gbreve_g(z0, z0)`` from the two-center
    quadrature (dims 1 and 3).

    Requires a real positive z0 (the bound-state setting); dim 2 is not
    supported.
    """
    z0 = complex(z0)
    if not (z0.imag == 0.0 and z0.real > 0.0):
        raise InvariantError("l2 norm implemented for real z0 > 0 only")
    q = np.asarray(q, dtype=complex)
    s = _product_matrix(ps, z0, z0)
    norm2 = np.real(np.conj(q) @ (s @ q))
    return float(np.sqrt(max(norm2, 0.0)))


class LaplacianPointEvaluator(GammaEvaluator):
    """Pencil backend for point interactions of the Laplacian.

    Its point holds the renormalized trace matrix in dims 1, 2, 3 and no
    maps: they need a grid (see LaplacianGrid1DEvaluator), and source
    superpositions are evaluated directly with ``point_source_sum`` or
    ``eigenfunction_eval``.  ``at`` takes one point at a time.
    """

    def __init__(self, ps: PointSet):
        self.ps = ps

    @property
    def n_charges(self) -> int:
        return self.ps.n_points

    def interval_in_resolvent_set(self, a: float, b: float) -> bool:
        return a <= b and a > 0.0

    def at(self, z: complex) -> EvaluationPoint:
        _one_point(self, z)
        _admit(z, True)
        try:  # the one branch-cut test: Re sqrt(z) > 0 in gamma_matrix
            return EvaluationPoint(gamma_matrix(self.ps, z))
        except BranchCut:
            _admit(z, False)  # raises OutsideResolventSet


class LaplacianGrid1DEvaluator(LaplacianPointEvaluator):
    """Dim-1 point backend with a fixed sample grid for function actions.

    The grid is ``xs = np.linspace(lo, hi, n)`` with step
    ``h = xs[1] - xs[0]``, for finite ``lo < hi`` and ``n >= 2``
    (InvariantError otherwise).  Functions are represented by their
    samples on the grid; the base resolvent action is trapezoid
    convolution with the decaying kernel, done in O(n) time and memory by
    the exponential-kernel recurrence, so all actions (and hence the
    assembled perturbed resolvent) carry O(h^2) quadrature error.
    """

    def __init__(self, ps: PointSet, lo: float, hi: float, n: int):
        if ps.dim != 1:
            raise InvariantError("the grid backend requires a dim-1 point set")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and n >= 2):
            raise InvariantError(f"grid needs finite lo < hi and n >= 2, got ({lo}, {hi}, {n})")
        super().__init__(ps)
        self.xs = np.linspace(lo, hi, n)
        self.h = float(self.xs[1] - self.xs[0])

    def r_apply(self, z: complex, f):
        """Trapezoid convolution of the samples with ``gz(|x - y|)``.

        The kernel ``e^{-kappa |x - y|}`` is separable on a uniform grid,
        so with ``q = e^{-kappa h}`` (|q| < 1) the sum is a forward and a
        backward first-order recurrence over the weighted samples; both
        count the diagonal term, which is subtracted once.  O(n) time and
        memory, exactly the dense trapezoid sum up to rounding.
        """
        f = np.asarray(f, dtype=complex)
        if f.shape != self.xs.shape:
            raise InvariantError("sample vector does not match the grid")
        h = self.h
        kappa = _resolved_kappa(h, z)
        wf = (_trapezoid_weights(f.size, h) * f).tolist()
        q = complex(np.exp(-kappa * h))
        out = []
        acc = 0j
        for v in wf:
            acc = q * acc + v
            out.append(acc)
        acc = 0j
        for i in range(len(wf) - 1, -1, -1):
            v = wf[i]
            acc = q * acc + v
            out[i] += acc - v
        return np.array(out) / (2.0 * kappa)

    def at(self, z: complex) -> EvaluationPoint:
        """The maps are ``r_apply``, the trapezoid quadrature of the traces
        ``integral gz(|y_j - x|) f(x) dx`` (O(h^2)) and the source
        superposition on the grid.  ``actions()`` does the GridTooCoarse
        check and builds the N x n kernel ``gz(|y_j - x_i|)`` once: the
        trace map weighs the samples with it, and the source map is its
        transpose (the values of ``point_source_sum``, bit for bit)."""

        def actions():
            r = np.abs(self.ps.points[:, 0][:, None] - self.xs[None, :])
            kernel = _gz_array(1, r, _resolved_kappa(self.h, z))
            weights = _trapezoid_weights(self.xs.size, self.h)

            def gbreve(f):
                f = np.asarray(f, dtype=complex)
                if f.shape != self.xs.shape:
                    raise InvariantError("sample vector does not match the grid")
                return kernel @ (weights * f)

            sources = np.ascontiguousarray(kernel.T)
            return lambda f: self.r_apply(z, f), gbreve, lambda ell: sources @ ell

        return EvaluationPoint(super().at(z).gamma, actions)

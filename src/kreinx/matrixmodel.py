"""Exact finite-dimensional model: the ground-truth oracle backend.

Everything here is exact linear algebra on a hermitian injective matrix
``a`` (n x n) and a surjective trace matrix ``tau`` (N x n).  The same
construction that the other backends realize with Green's functions is
available twice over:

* through the pencil machinery (``MatrixEvaluator.at`` + ``krein_resolvent``),
  in the eigenbasis ``a = U diag(lam) U^H`` computed once per model:
  with ``T = tau U`` and ``R(z) = (z I - a)^{-1}``, every map is a
  diagonal weight between ``U`` and ``T``, e.g. with ``r = 1/(z - lam)``
  ``gamma(z) = tau (R(0) - R(z)) tau^H = T diag(-z r/lam) T^H``;
* as the directly assembled hermitian matrix
  ``b = a + tau^H (theta + tau R(0) tau^H)^{-1} tau`` (dense inverse
  ``base_resolvent``, dense solve), whose ordinary resolvent
  ``(z I - b)^{-1}`` must agree with the first route wherever both are
  defined (a low-rank-update identity).

Disagreement between the two routes is a bug by definition, which is
what makes this backend the oracle.

Every map also takes a 1-d array of k points and returns a stack of k
results; one point runs the same broadcasting code with the same bits.
The pencil route checks z once, in ``_weights`` (OutsideResolventSet);
the oracle's ``base_resolvent`` shares no code with it and checks z
itself.

Note on scope: in finite dimension the trace map can never have the
"purely singular dual range" property the unbounded theory assumes, so
the formulas are exercised here as exact algebraic identities rather
than as statements about unbounded extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, OracleDegenerate, SpectrumHit
from .krein import EvaluationPoint, GammaEvaluator, ThetaMatrix, _admit, _point, _real_if_exact

# Relative spectral-distance floor for resolvent evaluations.
SPECTRUM_RTOL = 1e-12
# Relative smallest-singular-value floor for the oracle anchor pencil.
DEGENERACY_RTOL = 1e-12


class MatrixModel:
    """Hermitian injective ``a`` with a full-row-rank trace matrix ``tau``.

    Construction checks that ``a`` and ``tau`` are finite, symmetrizes
    ``a`` exactly after checking its hermiticity defect, diagonalizes it
    once (``a = basis diag(eigs) basis^H``, with ``traces = tau basis``),
    verifies injectivity (no eigenvalue within the spectral-distance
    floor ``pad`` of 0) and surjectivity of ``tau`` (smallest singular
    value bounded away from zero).  The trace-domination constant
    ``|tau a^{-1}|_2`` is computed when it is read.

    ``a`` and ``tau`` each take the dtype numpy infers from the input,
    and are float64 for real input (never widened to complex on the way)
    and for complex input whose imaginary parts are all exactly zero, so
    a real symmetric ``a`` is diagonalized in real arithmetic and
    ``basis`` (and ``traces``, for real ``tau``) come out real.  Nothing
    selects this: the data do.  The maps below need no
    case split, because their diagonal weights carry the complex z.
    """

    __slots__ = ("a", "tau", "eigs", "basis", "traces", "pad")

    def __init__(self, a, tau):
        a = _real_if_exact(a)
        tau = np.atleast_2d(_real_if_exact(tau))
        problems = []
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvariantError(f"base matrix must be square, got {a.shape}")
        n = a.shape[0]
        if tau.shape[1] != n:
            problems.append(
                f"trace matrix has {tau.shape[1]} columns, base matrix is {n}x{n}"
            )
        if tau.shape[0] > n:
            problems.append("trace matrix cannot have more rows than columns")
        if not np.all(np.isfinite(tau)):
            problems.append("trace matrix entries must be finite")
        # the hermiticity defect is only defined on finite entries
        if not np.all(np.isfinite(a)):
            problems.append("base matrix entries must be finite")
        else:
            # halves are exact, and their defect and sum cannot overflow
            h = a / 2.0
            scale = max(0.5, float(np.max(np.abs(h))))
            if float(np.max(np.abs(h - h.conj().T))) > 1e-12 * scale:
                problems.append("base matrix is not hermitian")
        if problems:
            raise InvariantError(problems)

        a = h + h.conj().T
        eigs, basis = np.linalg.eigh(a)
        pad = SPECTRUM_RTOL * max(1.0, float(np.max(np.abs(eigs))))
        if np.min(np.abs(eigs)) <= pad:
            raise InvariantError("base matrix must be injective (no eigenvalue at 0)")
        svals = np.linalg.svd(tau, compute_uv=False)
        if svals[-1] <= 1e-10 * svals[0]:
            raise InvariantError("trace matrix must have full row rank")

        traces = tau @ basis
        for arr in (a, tau, eigs, basis, traces):
            arr.flags.writeable = False
        self.a = a
        self.tau = tau
        self.eigs = eigs
        self.basis = basis
        self.traces = traces
        self.pad = pad

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def n_charges(self) -> int:
        return self.tau.shape[0]

    @property
    def trace_bound_constant(self) -> float:
        """``|tau a^{-1}|_2 = |traces diag(1/eigs)|_2``, one SVD per read."""
        return float(np.linalg.norm(self.traces / self.eigs, ord=2))

    def spectrum_distance(self, z: complex) -> np.ndarray:
        """Distance from z to the spectrum; one per point for an array z."""
        return np.abs(_column(z) - self.eigs).min(axis=-1)

    def __repr__(self):
        return f"MatrixModel(n={self.n}, N={self.n_charges})"


def _column(x) -> np.ndarray:
    """x as C-ordered complex with a trailing unit axis: ``_column(z) - eigs`` has
    one row per point of z, and a block of vectors becomes contiguous columns."""
    return np.asarray(x, dtype=complex, order="C")[..., None]


def _weights(model: MatrixModel, z) -> np.ndarray:
    """``1/(z - eigs)``: R(z) in the eigenbasis, one row per point of z,
    which ``_admit`` checks."""
    gaps = _column(z) - model.eigs
    _admit(z, np.abs(gaps).min(axis=-1) > model.pad)
    return 1.0 / gaps


def base_resolvent(model: MatrixModel, z) -> np.ndarray:
    """(z I - a)^{-1} as a dense inverse, (k, n, n) at k points: the
    oracle's matrix, also the independent side of
    ``verify.check_base_identities``.  The pencil route never forms it,
    and it checks z itself: InvariantError at a point that is not
    finite, else SpectrumHit within ``pad`` of the spectrum."""
    finite = np.isfinite(z)
    if not finite.all():
        raise InvariantError(f"z={_point(z, np.argmin(finite))!r} is not finite")
    hit = model.spectrum_distance(z) <= model.pad
    if hit.any():
        raise SpectrumHit(f"z={_point(z, np.argmax(hit))!r} hits the spectrum of the base matrix")
    return np.linalg.inv(_column(z)[..., None] * np.eye(model.n) - model.a)


@dataclass(frozen=True)
class GMaps:
    """The derived maps at a point z as matrices: resolvent image ``g``
    (n x N) and the zero-anchored difference ``k = z R(0) g = g at 0
    minus g at z`` (n x N)."""

    g: np.ndarray
    k: np.ndarray


def g_maps(model: MatrixModel, z: complex) -> GMaps:
    u, th = model.basis, model.traces.conj().T
    r = _weights(model, z)
    return GMaps(
        g=(u * r[..., None, :]) @ th,
        k=(u * (-_column(z) * r / model.eigs)[..., None, :]) @ th,
    )


def gamma(model: MatrixModel, z: complex) -> np.ndarray:
    """Renormalized trace matrix ``tau (R(0) - R(z)) tau^H``: the
    ``gamma`` of ``MatrixEvaluator(model).at(z)``."""
    return MatrixEvaluator(model).at(z).gamma


def product_matrix(model: MatrixModel, w: complex, z: complex) -> np.ndarray:
    """Product matrix (trace map at w) o (source map at z), N x N, as
    ``T diag(1/((w - lam)(z - lam))) T^H``; a stack where w and z are."""
    t = model.traces
    return (t * (_weights(model, w) * _weights(model, z))[..., None, :]) @ t.conj().T


def anchor_pencil(model: MatrixModel, theta) -> np.ndarray:
    """theta + tau R(0) tau^H, the pencil at the renormalization anchor."""
    entries = theta.entries if hasattr(theta, "entries") else np.asarray(theta)
    return entries + model.tau @ base_resolvent(model, 0.0) @ model.tau.conj().T


def woodbury_extension(model: MatrixModel, theta) -> np.ndarray:
    """Directly built perturbed matrix b = a + tau^H M^{-1} tau.

    M is the anchor pencil; its inverse feeds a rank-N hermitian update
    of the base matrix, and ``(z I - b)^{-1}`` reproduces the resolvent
    formula for every z off both spectra.  Raises OracleDegenerate when
    M is numerically singular (the perturbed operator still exists via
    the resolvent formula, just not in this additive form).
    """
    m = anchor_pencil(model, theta)
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= DEGENERACY_RTOL * max(svals[0], 1.0):
        raise OracleDegenerate("anchor pencil is singular; no additive form")
    b = model.a + model.tau.conj().T @ np.linalg.solve(m, model.tau)
    return (b + b.conj().T) / 2.0


def direct_eigs(model: MatrixModel, theta) -> np.ndarray:
    """All n eigenvalues of the directly built matrix, ascending."""
    return np.linalg.eigvalsh(woodbury_extension(model, theta))


class MatrixEvaluator(GammaEvaluator):
    """Pencil backend over a MatrixModel; exact, and ``at`` takes arrays."""

    def __init__(self, model: MatrixModel):
        self.model = model

    @property
    def n_charges(self) -> int:
        return self.model.n_charges

    def interval_in_resolvent_set(self, a: float, b: float) -> bool:
        eigs, pad = self.model.eigs, self.model.pad
        return a <= b and not np.any((eigs >= a - pad) & (eigs <= b + pad))

    def at(self, z: complex) -> EvaluationPoint:
        """One check of z and one weight row ``r = 1/(z - lam)`` per point
        (``_weights``) for ``gamma = T diag(-z r/lam) T^H``, whose weight is
        R(0) - R(z) in the eigenbasis (real at real z, so ``gamma`` is
        hermitian to rounding however close z is to the spectrum), and the
        maps ``U diag(r) U^H``, ``T diag(r) U^H`` and ``U diag(r) T^H``,
        which take each vector as a column."""
        r = _weights(self.model, z)
        u, t = self.model.basis, self.model.traces
        uh, th, rc = u.conj().T, t.conj().T, r[..., None]
        maps = (
            lambda f: (u @ (rc * (uh @ _column(f))))[..., 0],
            lambda f: (t @ (rc * (uh @ _column(f))))[..., 0],
            lambda ell: (u @ (rc * (th @ _column(ell))))[..., 0],
        )
        trace = (t * (-_column(z) * r / self.model.eigs)[..., None, :]) @ th
        return EvaluationPoint(trace, lambda: maps)


# ----------------------------------------------------------------------
# Seeded random generation.  The recipe is fixed so that a 64-bit seed
# reproduces the model bit for bit: unitary from QR of a complex Gaussian
# matrix, spectrum with magnitudes uniform in [0.1, 10] and random signs
# (injective with bounded condition number), Gaussian trace matrix with a
# row-rank guard, hermitian coupling built as an exact symmetrization.
# ----------------------------------------------------------------------


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_model(seed_or_rng, n: int, n_charges: int) -> MatrixModel:
    rng = np.random.default_rng(seed_or_rng)
    if not 1 <= n_charges <= n:
        raise InvariantError("need 1 <= n_charges <= n")
    q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
    # fix the QR phase convention so the unitary is seed-determined
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    spectrum = rng.uniform(0.1, 10.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    a = (q * spectrum) @ q.conj().T
    a = (a + a.conj().T) / 2.0
    for _ in range(64):
        tau = _complex_gaussian(rng, (n_charges, n))
        svals = np.linalg.svd(tau, compute_uv=False)
        if svals[-1] > 0.05 * svals[0]:
            break
    return MatrixModel(a, tau)


def random_theta(seed_or_rng, n_charges: int):
    rng = np.random.default_rng(seed_or_rng)
    m = _complex_gaussian(rng, (n_charges, n_charges))
    return ThetaMatrix((m + m.conj().T) / 2.0)


def random_offaxis_z(rng: np.random.Generator, count: int) -> np.ndarray:
    """z samples with |Im z| >= 0.1, safely off every real spectrum."""
    re = rng.uniform(-10.0, 10.0, size=count)
    im = rng.uniform(0.1, 5.0, size=count) * rng.choice([-1.0, 1.0], size=count)
    return re + 1j * im


def random_problem_suite(seed: int, count: int):
    """Deterministic stream of (model, theta, z-list) triples for checks:
    n from 2 to 12, N from 1 to min(4, n).

    Couplings whose anchor pencil is nearly singular are redrawn (up to a
    bounded number of attempts) so the additive oracle route exists; a
    model is yielded with the last draw regardless, and downstream code
    that needs the oracle handles OracleDegenerate explicitly.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 13))
        nc = int(rng.integers(1, min(4, n) + 1))
        model = random_model(rng, n, nc)
        theta = random_theta(rng, nc)
        for _ in range(16):
            m = anchor_pencil(model, theta)
            svals = np.linalg.svd(m, compute_uv=False)
            if svals[-1] > 1e-6 * max(svals[0], 1.0):
                break
            theta = random_theta(rng, nc)
        zs = random_offaxis_z(rng, 20)
        yield model, theta, zs

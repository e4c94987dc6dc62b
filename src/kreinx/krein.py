"""Backend-independent machinery for rank-N self-adjoint perturbations.

A perturbation is described by two ingredients: a backend evaluator,
whose ``at(z)`` checks z once and holds the renormalized trace matrix
``gamma(z)`` (plus, on some backends, the function-space maps), and a
hermitian N x N coupling matrix.  The perturbed resolvent acts as

    base resolvent + (image map) (theta + gamma(z))^{-1} (trace map),

so every spectral question reduces to the N x N pencil
``theta + gamma(z)``: it is inverted off the spectrum, and its kernel at
a singular point carries the charge vector of the corresponding
eigenfunction.  None of this depends on the vector: ``krein_resolvent``
builds it once per z, from one point.  On the matrix backend z may also
be a 1-d array of k points, for one pencil check and one solve per
stack, by broadcasting; every other backend's ``at`` rejects an array.

All types are immutable after construction and all operations are pure
functions of their inputs; concurrent use is safe.
"""

from __future__ import annotations

import cmath
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InvariantError,
    NotHermitian,
    OutsideResolventSet,
    SingularPencil,
    UnsupportedAction,
)

# Tolerance for accepting a computed matrix as hermitian, relative to its
# max-entry norm.  Quadrature-backed gammas carry noise at this level.
HERMITICITY_RTOL = 1e-10


def _maxabs(m) -> float:
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Check ``m`` is hermitian and return (m + m^H)/2.

    Raises NotHermitian when the defect exceeds
    ``HERMITICITY_RTOL * (1 + |m|)``.  A real ``m`` stays real.  An entry
    whose sum overflows is halved before adding; every other entry has
    the bits of (m + m^H)/2.  A scan checks its window ends and roots
    only: see ``spectral``.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    mh = m.conj().T
    # an infinite defect is refused below, and an overflowing sum (inf, or
    # nan from the complex halving of inf) is replaced
    with np.errstate(over="ignore", invalid="ignore"):
        defect = _maxabs(m - mh)
        h = (m + mh) / 2.0
    if defect > HERMITICITY_RTOL * (1.0 + _maxabs(m)):
        raise NotHermitian(
            f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_RTOL:.1e} * (1 + |m|)"
        )
    finite = np.isfinite(h)
    return h if finite.all() else np.where(finite, h, m / 2.0 + mh / 2.0)


def _real_if_exact(x) -> np.ndarray:
    """A new array of ``x`` in the dtype numpy infers, widened to float64
    or complex128; complex input, the only kind inspected, is float64 when
    every imaginary part is exactly zero."""
    x = np.array(x)
    if x.dtype.kind != "c":
        return x.astype(float, copy=False)
    return x.astype(complex, copy=False) if x.imag.any() else x.real.astype(float)


class ThetaMatrix:
    """Hermitian N x N coupling matrix.

    Construction demands exact hermiticity (entries must equal their
    conjugate transpose bit for bit); build inputs as (m + m^H)/2 if
    needed, which is exact in IEEE arithmetic.  ``entries`` take the dtype
    numpy infers from the input: float64 for real input, which is never
    widened to complex, and for complex input whose imaginary parts are
    all exactly zero (a real pencil stays real).
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = _real_if_exact(entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvariantError(
                f"coupling matrix must be square and nonempty, got shape {m.shape}"
            )
        if not np.array_equal(m, m.conj().T):
            raise NotHermitian("coupling matrix must be exactly hermitian")
        if not np.all(np.isfinite(m)):
            raise InvariantError("coupling matrix entries must be finite")
        m.flags.writeable = False
        self.entries = m

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"ThetaMatrix(n={self.n})"


def _no_actions():
    raise UnsupportedAction("the backend has no function-space actions")


@dataclass(frozen=True)
class EvaluationPoint:
    """A backend at one checked z, or a checked stack of k points: ``gamma``
    is the renormalized trace matrix, N x N (k x N x N for a stack), and
    ``actions()`` gives the maps ``(r, gbreve, g)``, each a function of one
    vector: the base resolvent ``f -> R(z) f``, the trace of its image
    ``f -> Gbreve(z) f`` (N values) and the source superposition
    ``ell -> G(z) ell``; UnsupportedAction on a backend without them."""

    gamma: np.ndarray
    actions: Callable[[], tuple] = _no_actions


def _admit(z, admissible) -> None:
    """OutsideResolventSet at the first point of z that is not finite (it
    must not reach LAPACK) or not ``admissible`` (one flag per point)."""
    if isinstance(z, np.ndarray):
        admissible = np.isfinite(z) & admissible
        if not admissible.all():
            raise OutsideResolventSet(f"z={_point(z, np.argmin(admissible))!r} is outside the resolvent set")
    elif not (cmath.isfinite(z) and admissible):
        raise OutsideResolventSet(f"z={z!r} is outside the resolvent set")


def _one_point(ev, z) -> None:
    """UnsupportedAction for an array z: ``ev`` takes one point at a time."""
    if isinstance(z, np.ndarray):
        raise UnsupportedAction(f"{type(ev).__name__} takes one point at a time")


class GammaEvaluator(ABC):
    """Backend contract consumed by the pencil machinery: the number of
    charges, ``at(z)``, the one per-z entry point, and the resolvent-set
    predicate on a real interval.  ``at`` takes a 1-d array of k points
    on the matrix backend; the others raise UnsupportedAction for one.
    """

    @property
    @abstractmethod
    def n_charges(self) -> int:
        """Dimension N of the charge space."""

    @abstractmethod
    def at(self, z: complex) -> EvaluationPoint:
        """The point z, checked once by ``_admit``."""

    @abstractmethod
    def interval_in_resolvent_set(self, a: float, b: float) -> bool:
        """Whether the real interval [a, b] avoids the base spectrum.

        Decided from the backend's spectrum, not by sampling points: the
        root count of ``scan_spectrum`` rests on it.
        """


@dataclass(frozen=True)
class ExtensionProblem:
    """A backend evaluator, a coupling matrix, and the numeric tolerances.

    ``tol_linear`` is the relative smallest-singular-value cutoff below
    which the pencil counts as singular.  ``tol_root`` is a pencil
    eigenvalue magnitude: a scan groups the eigenvalues at a root below
    it into the multiplicity and notes a root whose residual exceeds it
    (the sign change certifies the root; none is dropped).
    """

    evaluator: GammaEvaluator
    theta: ThetaMatrix
    tol_linear: float = 1e-12
    tol_root: float = 1e-10

    def __post_init__(self):
        problems = []
        if self.theta.n != self.evaluator.n_charges:
            problems.append(
                f"coupling matrix is {self.theta.n}x{self.theta.n} but the "
                f"backend has {self.evaluator.n_charges} charges"
            )
        if not (self.tol_linear > 0.0 and self.tol_root > 0.0):
            problems.append("tolerances must be positive")
        if not (cmath.isfinite(self.tol_linear) and cmath.isfinite(self.tol_root)):
            problems.append("tolerances must be finite")
        if problems:
            raise InvariantError(problems)


def _point(z, i):
    """Point i of the stack z, or z itself when it is one point."""
    return complex(np.ravel(z)[i]) if np.ndim(z) else z


def gamma_theta(problem: ExtensionProblem, z: complex) -> np.ndarray:
    """The pencil theta + gamma(z), hermitian at admissible real z; the
    (k, N, N) stack at a 1-d array of k points, where ``at`` takes one."""
    return problem.theta.entries + problem.evaluator.at(z).gamma


def krein_resolvent(problem: ExtensionProblem, z: complex):
    """The perturbed resolvent at z as the function ``f ->
    r(f) + g((theta + gamma(z))^{-1} gbreve(f))`` over the maps
    ``(r, gbreve, g)`` of the one checked point.

    At k points (see ``gamma_theta``) row i of a (k, n) block is mapped
    at point i, and one vector at every point, with one solve: the block
    axes become the columns of one right-hand side per pencil, so each
    pencil is factored once per apply.

    Raises OutsideResolventSet, then SingularPencil when the smallest
    singular value of a pencil is at most ``tol_linear`` times its
    largest (that point is then, numerically, an eigenvalue of the
    perturbed operator), then UnsupportedAction for a backend without
    actions, all before any vector is applied and naming the point.
    """
    point = problem.evaluator.at(z)
    pencil = problem.theta.entries + point.gamma
    svals = np.linalg.svd(pencil, compute_uv=False)
    singular = svals[..., -1] <= problem.tol_linear * svals[..., 0]
    if singular.any():
        i = np.argmax(singular)  # the first singular point of a stack
        low, top = np.atleast_2d(svals)[i][[-1, 0]]
        raise SingularPencil(
            f"pencil at z={_point(z, i)!r} has relative smallest singular value "
            f"{0.0 if top == 0.0 else low / top:.3e}"
        )
    r, gbreve, g = point.actions()

    def apply(f):
        traces = np.asarray(gbreve(f), dtype=complex)
        columns = np.moveaxis(traces.reshape(-1, *pencil.shape[:-1]), 0, -1)
        charges = np.moveaxis(np.linalg.solve(pencil, columns), -1, 0)
        return r(f) + g(charges.reshape(traces.shape))

    return apply


def krein_apply(problem: ExtensionProblem, z: complex, f):
    """``krein_resolvent(problem, z)(f)``: one vector, the same errors."""
    return krein_resolvent(problem, z)(f)

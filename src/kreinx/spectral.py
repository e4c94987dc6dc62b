"""Locate resolvent poles of the perturbed operator on the real line.

A pole inside the base resolvent set is a point where the hermitian
pencil ``theta + gamma(lambda)`` becomes singular.  On a real gap of the
base resolvent set ``gamma`` is a matrix Nevanlinna function whose
derivative, the product matrix ``gbreve_g(lambda, lambda)``, is positive
definite, so every sorted eigenvalue branch of the pencil is strictly
increasing.  Sylvester inertia at the two window ends therefore
certifies the number of roots, and each root is the one zero of its
branch, found by ``_root_double``; determinants are avoided on purpose (they
under/overflow).  The certificate needs the whole window inside a real
gap, which every backend decides from its spectrum, not by sampling
points, in ``interval_in_resolvent_set``.  This module holds the scan
only, and the scan is the one source of a root's charge vector: it is
read from the pencil that certifies the root.  A computed eigenpair is
checked against the boundary condition by ``verify.verify_eigenpair``,
and its eigenfunction is evaluated by ``greens.eigenfunction_eval``.
``hermitian_part`` checks the window ends and roots only, as
``gamma(z)^H = gamma(conj z)`` makes the pencil hermitian on the whole
gap; a point in between is symmetrized unless both ends were exactly so.

Energy convention for physics-facing output: a pole z0 of the perturbed
Laplacian-like operator corresponds to the bound-state energy
``E = -z0`` of its negated counterpart.  In dim 1 a single point with
scalar coupling ``alpha`` matches the delta well of strength
``c = 1/alpha``; this mapping is used only by external cross-checks.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    InertiaMismatch,
    IntervalOutsideResolventSet,
    InvariantError,
    PencilNotMonotone,
)
from .krein import ExtensionProblem, gamma_theta, hermitian_part


@dataclass(frozen=True)
class SpectralRoot:
    """One located pole: position, unit charge vector (phase-fixed so its
    first significant component is real-positive), pencil residual
    (smallest eigenvalue magnitude at the root) and eigenvalue count at
    the root."""

    z0: float
    charge: np.ndarray
    residual: float
    multiplicity: int

    @property
    def energy(self) -> float:
        return -self.z0


@dataclass(frozen=True)
class SpectrumReport:
    """The located roots in increasing order, and one note per root
    whose pencil residual exceeds ``tol_root``."""

    roots: tuple
    warnings: tuple

    def positions(self) -> np.ndarray:
        return np.array([r.z0 for r in self.roots])


def _branch_values(problem: ExtensionProblem, lam: float):
    """The pencil at ``lam`` and its sorted eigenvalues, checked hermitian."""
    p = gamma_theta(problem, lam)
    return p, np.linalg.eigvalsh(hermitian_part(p))


def _interior_values(problem: ExtensionProblem, lam: float, exact: bool):
    """``_branch_values`` at ``lam``, unchecked: the pencil is
    symmetrized only when not ``exact``."""
    p = gamma_theta(problem, lam)
    return p, np.linalg.eigvalsh(p if exact else (p + p.conj().T) / 2.0)


def scan_spectrum(problem: ExtensionProblem, interval) -> SpectrumReport:
    """Find all pencil roots in the closed window ``interval`` = (a, b).

    The window must lie inside the base operator's real resolvent set,
    where every sorted pencil branch is strictly increasing.  The roots
    in [a, b], counted with multiplicity, are then exactly the branches
    k with ``ea[k] <= 0 <= eb[k]`` for the branch values ``ea``, ``eb``
    at the ends (Sylvester inertia).  Each is solved by ``_root_double``
    from the tightest bracket among the points evaluated so far, and the
    double next to its sign change (or where it is 0), which encloses it,
    is reported: no root is dropped.  A root where m >= 1 pencil
    eigenvalues are at most ``tol_root`` in magnitude is reported once
    with multiplicity m and covers m branches; one whose residual exceeds
    ``tol_root`` has multiplicity 1 and a note.  The residual and
    multiplicity are read from the branch values at the root, and the
    charge from one ``eigh`` of the same pencil, checked hermitian there.

    Raises PencilNotMonotone when a branch does not increase from a to b
    (an evaluator that is not Nevanlinna on the window), and
    InertiaMismatch when the roots found do not account for the count.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise InvariantError(f"need a < b, got ({a!r}, {b!r})")
    if not problem.evaluator.interval_in_resolvent_set(a, b):
        raise IntervalOutsideResolventSet(
            f"[{a!r}, {b!r}] is not inside the base real resolvent set"
        )

    points = {a: _branch_values(problem, a), b: _branch_values(problem, b)}
    ea, eb = points[a][1], points[b][1]
    if not np.all(eb > ea):
        k = int(np.argmin(eb - ea))
        raise PencilNotMonotone(
            f"pencil branch {k} does not increase over [{a!r}, {b!r}]: "
            f"{ea[k]:.3e} at a, {eb[k]:.3e} at b"
        )
    # branch k crosses zero left of branch k - 1, so walking down from the
    # highest bracketed branch yields the roots in increasing order
    lowest = int(np.sum(eb < 0.0))
    k = int(np.sum(ea <= 0.0)) - 1
    count = k + 1 - lowest

    exact = all(np.array_equal(p, p.conj().T) for p, _ in points.values())

    def branch(x):  # the value of branch k at x, one pencil per point
        if x not in points:
            points[x] = _interior_values(problem, x, exact)
        return float(points[x][1][k])

    notes = []
    roots = []
    while k >= lowest:
        lo = max(x for x, (_, v) in points.items() if v[k] <= 0.0)
        hi = min(x for x, (_, v) in points.items() if x >= lo and v[k] >= 0.0)
        z0 = _root_double(branch, lo, branch(lo), hi, branch(hi))
        pencil, evals = points[z0]
        residual = float(np.min(np.abs(evals)))
        if residual > problem.tol_root:
            notes.append(
                f"root lambda={z0:.9g} did not refine below tol_root "
                f"(pencil eigenvalue {residual:.3e})"
            )
        mult = max(1, int(np.sum(np.abs(evals) <= problem.tol_root)))
        roots.append(SpectralRoot(z0, _kernel_vector(pencil), residual, mult))
        k -= mult

    # k ends below lowest when the roots found cover more branches than
    # the window brackets
    if k != lowest - 1:
        raise InertiaMismatch(
            f"[{a!r}, {b!r}] holds {count} roots by inertia but the located "
            f"roots account for {count + lowest - 1 - k}; roots closer than "
            f"tol_root to each other or to a window end are not resolved"
        )
    return SpectrumReport(roots=tuple(roots), warnings=tuple(notes))


_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")


def _ordinal(x: float) -> int:
    """Position of x among the doubles; both zeros are 0."""
    return _I64.unpack(_F64.pack(abs(x)))[0] * (1 if x > 0.0 else -1)


def _double(n: int) -> float:
    return _F64.unpack(_I64.pack(abs(n)))[0] * (1 if n >= 0 else -1)


def _root_double(f, x_lo: float, f_lo: float, x_hi: float, f_hi: float) -> float:
    """A double in the bracket ``f(x_lo) = f_lo <= 0 <= f_hi = f(x_hi)``,
    ``x_lo <= x_hi``, where f is 0, else the one of two adjacent doubles
    across a sign change with the smaller |f| (lo on a tie).  Each step is
    an interpolation or, if the last two did not halve the ordinals, a
    bisection of them, so a root costs at most 3 x 64 evaluations."""
    lo, hi = _ordinal(x_lo), _ordinal(x_hi)
    x_p = f_p = math.nan  # no dropped point yet, so no quadratic
    older = old = math.inf
    while hi - lo > 1 and 0.0 not in (f_lo, f_hi):
        n = (lo + hi) // 2
        if 2 * (hi - lo) <= older:  # the last two steps halved the bracket
            # the secant, then the inverse quadratic as its Newton term
            d = (x_hi - x_lo) / (f_hi - f_lo)
            x = x_lo - f_lo * d
            if f_p not in (f_lo, f_hi):  # so no divisor is 0
                q = x + f_lo * f_hi * ((x_p - x_hi) / (f_p - f_hi) - d) / (f_p - f_lo)
                x = q if x_lo <= q <= x_hi else x
            n = min(max(_ordinal(x), lo + 1), hi - 1)  # an inf or nan x clamps too
        older, old = old, hi - lo
        x = _double(n)
        fx = f(x)
        if fx < 0.0:
            x_p, f_p, lo, x_lo, f_lo = x_lo, f_lo, n, x, fx
        else:
            x_p, f_p, hi, x_hi, f_hi = x_hi, f_hi, n, x, fx
    return x_hi if abs(f_hi) < abs(f_lo) else x_lo


def _kernel_vector(pencil: np.ndarray) -> np.ndarray:
    """The unit eigenvector of the checked ``pencil`` for its least
    eigenvalue magnitude: a root's charge.  Its first component with
    magnitude above 1e-8 is rotated real-positive so output is
    reproducible."""
    evals, vecs = np.linalg.eigh(hermitian_part(pencil))
    v = vecs[:, int(np.argmin(np.abs(evals)))]
    for comp in v:
        if abs(comp) > 1e-8:
            v = v * (np.conj(comp) / abs(comp))
            break
    return v / np.linalg.norm(v)

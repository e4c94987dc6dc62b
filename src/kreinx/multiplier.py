"""Green's functions for real 1-d Fourier multiplier symbols.

A symbol is a real polynomial (even degree >= 2, negative leading
coefficient, so it tends to -inf both ways) plus a finite cosine sum,
the transform of a compactly supported combination of derivatives and
shifted deltas.  The operator it multiplies is self-adjoint, its
spectrum is the closure of the symbol's range ``(-inf, sup m]``, and for
z off that set the decaying kernel is the inverse transform

    gz(x) = (1/2pi) integral e^{i xi x} / (z - m(xi)) d xi,

computed with the QUADPACK Fourier algorithm (adaptive Gauss-Kronrod
panels per half-cycle plus series extrapolation of the cycle sums, which
stands in for an explicit analytic tail estimate).  A real integrand
(real parameters) is built in float arithmetic, one QUADPACK pass in
place of ``complex_func``'s two.  Every transform runs with the same
fixed QUADPACK settings, and its reported error estimate is checked
against one fixed target, 1e-8 relative with an absolute floor of
1e-12; TailEstimateFailed is raised when it cannot be met.

There is no closed-form zero-energy kernel for a generic symbol, so no
absolute renormalization is attempted here: only the anchored difference
``gamma(z) - gamma(w0)`` is exposed, whose integrand decays like
xi^(-2 deg) and needs no renormalization at all.  Choosing the anchor
``w0`` re-parametrizes the coupling matrix as ``theta' = theta +
gamma(w0)``, which reintroduces exactly the kind of reference-point
dependence the Laplacian backend's zero-energy anchor avoids; results
from this backend must be read with the anchor in mind.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantError, SymbolRangeHit, TailEstimateFailed
from .greens import PointSet, _per_key_matrix, _quad as quad
from .krein import EvaluationPoint, GammaEvaluator, _admit, _one_point


@dataclass(frozen=True)
class Multiplier1D:
    """Symbol descriptor: ascending polynomial coefficients plus cosine
    terms ``(frequency, coefficient)``."""

    poly: tuple
    cos_terms: tuple = ()

    def __post_init__(self):
        problems = []
        coeffs = tuple(float(c) for c in self.poly)
        while coeffs and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if len(coeffs) < 3:
            problems.append("polynomial part must have degree >= 2")
        else:
            degree = len(coeffs) - 1
            if degree % 2 != 0:
                problems.append("polynomial degree must be even")
            if coeffs[-1] >= 0.0:
                problems.append("leading polynomial coefficient must be negative")
        terms = tuple((float(k), float(c)) for k, c in self.cos_terms)
        for k, c in terms:
            if not (math.isfinite(k) and math.isfinite(c)) or k <= 0.0:
                problems.append(f"bad cosine term (k={k!r}, c={c!r})")
        if any(not math.isfinite(c) for c in coeffs):
            problems.append("polynomial coefficients must be finite")
        if problems:
            raise InvariantError(problems)
        object.__setattr__(self, "poly", coeffs)
        object.__setattr__(self, "cos_terms", terms)
        object.__setattr__(self, "_horner", coeffs[-2::-1])  # for __call__

    @property
    def is_even(self) -> bool:
        return all(c == 0.0 for c in self.poly[1::2])

    def __call__(self, xi):
        # Horner's rule in numpy polyval's order, so the same bits
        out = self.poly[-1] + xi * 0
        for coef in self._horner:
            out = coef + out * xi
        for k, c in self.cos_terms:
            out = out + c * np.cos(k * xi)
        return out

    @cached_property
    def range_max(self) -> float:
        """Sup of the symbol over the real line.

        Beyond the domination radius the negative leading term wins, so
        the sup is attained at a real critical point.  Without cosine
        terms it is the largest exact ``m`` at the real parts of the roots
        of ``m'`` plus Horner's running error bound there (Higham, Alg.
        5.1), so it bounds the symbol as ``__call__`` rounds it.  With them
        a dense grid (fine enough for the fastest cosine) is refined by
        bounded local maximization.
        """
        if not self.cos_terms:
            from fractions import Fraction

            best = -math.inf
            for x in map(Fraction, np.roots(np.polyder(self.poly[::-1])).real.tolist()):
                y, mu = Fraction(self.poly[-1]), abs(self.poly[-1]) / 2.0
                for coef in self._horner:  # exact Horner, with the running bound mu
                    y = Fraction(coef) + y * x
                    mu = float(abs(x)) * mu + float(abs(y))
                best = max(best, y + Fraction(np.finfo(float).eps * (mu - float(abs(y)) / 2.0)))
            return float(best)
        from scipy.optimize import minimize_scalar

        lead = abs(self.poly[-1])
        lower = sum(abs(c) for c in self.poly[:-1]) + sum(
            abs(c) for _, c in self.cos_terms
        )
        radius = max(1.0, 2.0 * (lower + 1.0) / lead)
        k_max = max([k for k, _ in self.cos_terms], default=1.0)
        step = min(0.02, math.pi / (10.0 * k_max))
        n = min(int(2.0 * radius / step) + 2, 2_000_001)
        grid = np.linspace(-radius, radius, n)
        vals = self(grid)
        best = float(vals.max())
        order = np.argsort(vals)[::-1][:12]
        for i in order:
            lo = grid[max(int(i) - 1, 0)]
            hi = grid[min(int(i) + 1, n - 1)]
            res = minimize_scalar(
                lambda t: -float(self(t)), bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-12},
            )
            best = max(best, -float(res.fun))
        return best

    def resolvent_distance(self, z: complex) -> float:
        """Distance from z to the spectrum (-inf, range_max]."""
        z = complex(z)
        if z.real <= self.range_max:
            return abs(z.imag)
        return abs(z - self.range_max)

    def in_resolvent_set(self, z: complex) -> bool:
        return self.resolvent_distance(z) > 1e-9 * (1.0 + abs(complex(z)))


def _check_admissible(m: Multiplier1D, z: complex) -> None:
    if not m.in_resolvent_set(z):
        raise SymbolRangeHit(
            f"z={z!r} is within {m.resolvent_distance(z):.3e} of the symbol range"
        )


def _parameters(m: Multiplier1D, *values):
    """Check each value off the symbol range; floats if all are real, else complex."""
    for v in values:
        _check_admissible(m, v)
    return _floats_if_real(*values)


def _floats_if_real(*values):
    values = [complex(v) for v in values]
    return values if any(v.imag for v in values) else [v.real for v in values]


def _inverse_transform(func, x, where, *, even, real):
    """(1/2pi) integral over the real line of e^{i xi x} func(xi) d xi.

    func maps a scalar xi to a float if ``real`` (one QUADPACK pass), else
    to a complex value (two, ``complex_func``); even=True declares
    func(-xi) == func(xi) and skips the odd part.  Raises
    TailEstimateFailed (naming ``where``) when the QUADPACK error
    estimate exceeds ``max(1e-8 * |value|, 1e-12)``.
    """
    from scipy.integrate import IntegrationWarning

    ax = abs(float(x))

    def s_plus(t):
        v = func(t)
        return v + (v if even else func(-t))

    def s_minus(t):
        return func(t) - func(-t)

    # the error estimate is gated below, so QUADPACK's roundoff chatter
    # at tight epsabs carries no extra information
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if ax < 1e-12:
            val, err = quad(s_plus, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12,
                            limit=400, complex_func=not real)
            err = err.real + err.imag
        else:
            kw = dict(wvar=ax, epsabs=1e-13, limit=400, limlst=150, complex_func=not real)
            val, err = quad(s_plus, 0.0, np.inf, weight="cos", **kw)
            err = err.real + err.imag
            if not even:
                sin_val, sin_err = quad(s_minus, 0.0, np.inf, weight="sin", **kw)
                val += 1j * (1.0 if x > 0 else -1.0) * sin_val
                err += sin_err.real + sin_err.imag
    val = complex(val) / (2.0 * math.pi)
    err /= 2.0 * math.pi
    if err > max(1e-8 * abs(val), 1e-12):
        raise TailEstimateFailed(f"error estimate {err:.3e} exceeds target at {where}")
    return val


def multiplier_gz_1d(m: Multiplier1D, z: complex, x: float) -> complex:
    """Decaying kernel of the symbol's resolvent at offset ``x``.

    Raises SymbolRangeHit when z touches the symbol range and
    TailEstimateFailed when the quadrature error estimate exceeds
    ``max(1e-8 * |value|, 1e-12)``.
    """
    (zs,) = _parameters(m, z)

    def func(xi):
        return 1.0 / (zs - m(xi))

    where = f"z={complex(z)!r}, x={x!r}"
    return _inverse_transform(func, x, where, even=m.is_even, real=isinstance(zs, float))


def anchored_gamma_1d(m: Multiplier1D, ps: PointSet, z: complex, w0: complex) -> np.ndarray:
    """Anchored trace-matrix difference ``gamma(z) - gamma(w0)``.

    Entry (j, k) is the kernel difference ``(g_{w0} - g_z)(y_j - y_k)``,
    a single absolutely convergent integral per displacement (the
    integrand decays like xi^(-2 deg), so the diagonal needs no
    renormalization).  Hermitian for real z, w0 off the symbol range;
    identically zero at z == w0.
    """
    return _anchored_difference(m, ps, *_parameters(m, z, w0))


def _anchored_difference(m, ps, z, w0) -> np.ndarray:
    """``anchored_gamma_1d`` at z and w0 already checked and converted."""
    if z == w0:
        return np.zeros((ps.n_points, ps.n_points), dtype=complex)
    return _pairwise_fourier_matrix(m, ps, z - w0, w0, z)


def _pairwise_fourier_matrix(m, ps, c, w, z) -> np.ndarray:
    """Entry (j, k) is the inverse transform of ``c / ((w - m)(z - m))`` at y_j - y_k."""
    if ps.dim != 1:
        raise InvariantError("multiplier backend requires a dim-1 point set")

    def func(xi):
        mx = m(xi)
        return c / ((w - mx) * (z - mx))

    real = isinstance(z, float)
    return _per_key_matrix(
        ps.displacements_1d(),
        lambda r: _inverse_transform(func, r, f"displacement {r!r}", even=m.is_even, real=real),
    )


class MultiplierAnchoredEvaluator(GammaEvaluator):
    """Pencil backend for a generic symbol, anchored at ``w0``.

    The point's ``gamma`` is the anchored difference relative to ``w0``, so
    the coupling matrix fed to the pencil machinery is the anchored
    re-parametrization ``theta' = theta + gamma(w0)`` of the absolute
    coupling (see the module docstring); poles and charge vectors are
    anchor-consistent once theta is interpreted that way.
    """

    def __init__(self, m: Multiplier1D, ps: PointSet, w0: complex):
        _check_admissible(m, w0)
        if ps.dim != 1:
            raise InvariantError("multiplier backend requires a dim-1 point set")
        self.m = m
        self.ps = ps
        self.w0 = complex(w0)

    @property
    def n_charges(self) -> int:
        return self.ps.n_points

    def interval_in_resolvent_set(self, a: float, b: float) -> bool:
        return a <= b and self.m.in_resolvent_set(complex(a))

    def at(self, z: complex) -> EvaluationPoint:
        """One symbol-range check of z; ``__init__`` checked the anchor."""
        _one_point(self, z)
        _admit(z, self.m.in_resolvent_set(z))
        return EvaluationPoint(_anchored_difference(self.m, self.ps, *_floats_if_real(z, self.w0)))

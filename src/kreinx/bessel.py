# Modified Bessel function of the second kind, order zero.
#
# K0 comes from scipy.special.kv, the AMOS algorithm (D. E. Amos, ACM TOMS
# 12 (1986), Algorithm 644), which accepts complex arguments and stays
# within a few ulps of a high-precision reference on the real axis.  AMOS
# refuses |w| above about 1.07e9 (scipy then returns NaN); past 1e9 two
# terms of the asymptotic series,
#   K0(w) ~ sqrt(pi/(2w)) e^{-w} (1 - 1/(8w)),
# are exact to double precision (the next term is 9/(128 w^2) < 1e-19).
#
# The public wrappers only add the domain guards: kernels need Re w > 0,
# the real entry point needs x > 0.
#
# scipy.special is imported inside _k0, so only a request that evaluates
# K0 (the 2-d kernel) pays for loading it.

import math

import numpy as np

from .errors import NonpositiveArgument

_AMOS_RANGE = 1e9


def _k0(w) -> np.ndarray:
    """K0 on a complex array with Re w > 0 (no domain check)."""
    from scipy.special import kv

    w = np.atleast_1d(np.asarray(w, dtype=complex))
    out = kv(0, w)
    far = np.abs(w) > _AMOS_RANGE
    if far.any():
        wf = w[far]
        out[far] = np.sqrt(np.pi / (2.0 * wf)) * np.exp(-wf) * (1.0 - 1.0 / (8.0 * wf))
    return out


def k0_right_half_plane(w: complex) -> complex:
    """K0 for complex w with Re w > 0 (internal helper for kernels)."""
    w = complex(w)
    if w.real <= 0.0:
        raise NonpositiveArgument(f"K0 evaluated at Re w <= 0: {w!r}")
    return complex(_k0(w)[0])


def k0_bessel(x: float) -> float:
    """K0(x) for x > 0, absolute error <= 1e-10.

    Raises NonpositiveArgument for x <= 0.
    """
    x = float(x)
    if not x > 0.0 or math.isnan(x):
        raise NonpositiveArgument(f"K0 requires x > 0, got {x!r}")
    return k0_right_half_plane(x).real

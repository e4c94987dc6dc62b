# Modified Bessel function of the second kind, order zero.
#
# On a real argument K0 comes from scipy.special.k0 (Cephes Chebyshev
# expansions) in real arithmetic: within 1.4e-15 relative of a 40-digit
# reference on [1e-6, 600] (AMOS: 2.7e-15), about 6x faster than AMOS,
# and 0 past x ~ 745, where K0 underflows.  On a complex argument it
# comes from scipy.special.kv, the AMOS algorithm (D. E. Amos, ACM TOMS
# 12 (1986), Algorithm 644).  AMOS refuses |w| above about 1.07e9 (scipy
# then returns NaN); past 1e9 two terms of the asymptotic series,
#   K0(w) ~ sqrt(pi/(2w)) e^{-w} (1 - 1/(8w)),
# are exact to double precision (the next term is 9/(128 w^2) < 1e-19).
#
# _k0 checks no domain: its one caller, greens._gz_array, passes
# w = sqrt(z) r with Re sqrt(z) > 0 (checked by greens._sqrt_principal)
# and r > 0.  The public k0_bessel adds the guard x > 0.
#
# scipy.special is imported inside _k0, so only a request that evaluates
# K0 (the 2-d kernel) pays for loading it.

import numpy as np

from .errors import NonpositiveArgument

_AMOS_RANGE = 1e9


def _k0(w) -> np.ndarray:
    """K0 on an array with Re w > 0 (no domain check): Cephes or AMOS."""
    from scipy.special import k0, kv

    w = np.atleast_1d(np.asarray(w))
    if not np.iscomplexobj(w):
        return k0(w)
    out = kv(0, w)
    far = np.abs(w) > _AMOS_RANGE
    if far.any():
        wf = w[far]
        out[far] = np.sqrt(np.pi / (2.0 * wf)) * np.exp(-wf) * (1.0 - 1.0 / (8.0 * wf))
    return out


def k0_bessel(x: float) -> float:
    """K0(x) for x > 0, absolute error <= 1e-10.

    Raises NonpositiveArgument for x <= 0.
    """
    x = float(x)
    if not x > 0.0:  # NaN included
        raise NonpositiveArgument(f"K0 requires x > 0, got {x!r}")
    return _k0(x)[0].item()
